from collections import Counter

import pytest

from kommute import blocks, construct, formulas, oracle, verify
from kommute.perm import CycleType, Permutation, word_is_even


def per_pair_check_pairs(n_max, max_n):
    """
    The pair checks deciding every pair on its own, on Permutations and
    ``blocks.bad_points``: the reference for the walk's shared per-cycle
    verdicts and invariants behind ``verify._check_pairs``.
    """
    block_bad, census_bad = [], []
    for n, t, beta in verify._representatives(min(n_max, 6)):
        w = beta.word
        frame = blocks._frame(w)
        cycles = frame.cycles
        max_len = max(len(c) for c in cycles)
        bound = formulas.support_bound(t)
        for alpha in oracle.enumerate_sn(n, max_degree=max_n):
            bp = blocks.bad_points(alpha, beta)
            k = alpha.commute_distance(beta)
            if n <= 5:
                images = {alpha(p) for p in bp}
                touched = sorted(len(c) for c in cycles if not bp.isdisjoint(c))
                if touched != sorted(len(c) for c in cycles if not images.isdisjoint(c)):
                    census_bad.append(f"image census: alpha={alpha} beta={beta}")
            if not blocks._characterized(alpha.word, w, frame, bp, k):
                block_bad.append(f"characterization fails: alpha={alpha} beta={beta}")
                continue
            prof = blocks._profile(bp, cycles)
            if sum(prof) != k:
                block_bad.append(f"profile sum != distance: alpha={alpha} beta={beta}")
            if k and set(prof) == {1}:
                block_bad.append(f"all-ones profile: alpha={alpha} beta={beta}")
            if 1 in prof and (len(prof) < 2 or prof[0] < 2):
                block_bad.append(f"lonely 1-part: alpha={alpha} beta={beta}")
            if k > bound:
                block_bad.append(f"distance above support bound: alpha={alpha} beta={beta}")
            for cycle in cycles:
                if len(cycle) == max_len and sum(p in bp for p in cycle) == 1:
                    block_bad.append(f"1 bad point on max cycle: alpha={alpha} beta={beta}")
    return [
        ("block characterization and profile invariants", block_bad),
        ("image cycle census", census_bad),
    ]


def change_bad_points(monkeypatch, change):
    # the same change to the bad points at both seams: oracle._scan, where
    # the walk reads them, and blocks.bad_points, where the per-pair
    # reference does.  ``change(bad, a, b)`` takes and returns a set of
    # zero-based points, given the zero-based words of alpha and beta
    exact_bad, exact_scan = blocks.bad_points, oracle._scan

    def bad_points(alpha, beta):
        bad = {p - 1 for p in exact_bad(alpha, beta)}
        return frozenset(p + 1 for p in change(bad, alpha.word, beta.word))

    def scan(beta_word):
        for bad, a in exact_scan(beta_word):
            yield tuple(sorted(change(set(bad), a, beta_word))), a

    monkeypatch.setattr(blocks, "bad_points", bad_points)
    monkeypatch.setattr(oracle, "_scan", scan)


def drop_bad_point(monkeypatch):
    change_bad_points(monkeypatch, lambda bad, a, b: bad - {min(bad)} if bad else bad)


def add_bad_point(monkeypatch):
    def adding(bad, a, b):
        good = set(range(len(a))) - bad
        return bad | {min(good)} if good else bad

    change_bad_points(monkeypatch, adding)


def step_bad_points(monkeypatch):
    # on the pairs with an even alpha, each bad point moves on to its
    # beta-image: the same count on each cycle, but a different set for
    # the same images of alpha
    change_bad_points(
        monkeypatch, lambda bad, a, b: {b[p] for p in bad} if word_is_even(a) else bad
    )


def reverse_runs(monkeypatch):
    exact = blocks._cut
    monkeypatch.setattr(
        blocks, "_cut", lambda cycle, bad, start: [run[::-1] for run in exact(cycle, bad, start)]
    )


def break_cut(monkeypatch):
    def broken(cycle, bad, start):
        raise ValueError("walk broken")

    monkeypatch.setattr(blocks, "_cut", broken)


def truncate_profile(monkeypatch):
    exact = blocks._profile
    monkeypatch.setattr(blocks, "_profile", lambda bad, cycles: exact(bad, cycles)[:1])


def reject_two_strings(monkeypatch):
    exact = blocks._is_block
    monkeypatch.setattr(
        blocks, "_is_block", lambda points, word, host: len(points) != 2 and exact(points, word, host)
    )


MUTATIONS = [drop_bad_point, add_bad_point, step_bad_points, reverse_runs, break_cut,
             truncate_profile, reject_two_strings]


class TestCheckPairs:
    def test_matches_per_pair_reference(self):
        for n_max in (2, 5, 6):
            got = verify._check_pairs(n_max, verify._walks(n_max))
            assert got == per_pair_check_pairs(n_max, n_max)
            assert not any(failures for _, failures in got)

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
    def test_mutations_fail_as_the_reference(self, monkeypatch, mutate):
        # the shared verdicts report the same failures, in the same order
        mutate(monkeypatch)
        got = verify._check_pairs(5, verify._walks(5))
        assert got == per_pair_check_pairs(5, 5)
        assert got[0][1]

    def test_mutation_at_degree_six_fails_as_the_reference(self, monkeypatch):
        reverse_runs(monkeypatch)
        got = verify._check_pairs(6, verify._walks(6))
        assert got == per_pair_check_pairs(6, 6)
        assert any(f.endswith("beta=(1 2 3 4 5 6)") for f in got[0][1])

    def test_each_cycle_verdict_decided_once(self, monkeypatch):
        # the 8902 pairs with n <= 6 hold 27930 (pair, cycle of beta)
        # evaluations, of which 3636 have distinct keys
        calls = 0
        exact = blocks._cycle_verdict

        def counting(*args):
            nonlocal calls
            calls += 1
            return exact(*args)

        monkeypatch.setattr(blocks, "_cycle_verdict", counting)
        results = verify.verification_checks(6, max_n=6)
        assert not any(failures for _, failures in results)
        assert calls == 3636

    def test_invariants_checked_once_per_bad_set_and_distance(self, monkeypatch):
        seen: Counter = Counter()
        exact = blocks._profile

        def counting(bad, cycles):
            seen[frozenset(bad), tuple(cycles)] += 1
            return exact(bad, cycles)

        monkeypatch.setattr(blocks, "_profile", counting)
        assert not any(failures for _, failures in verify._check_pairs(6, verify._walks(6)))
        assert seen and set(seen.values()) == {1}


class TestEnumeratorChecks:
    def scans(self, monkeypatch):
        scans: Counter = Counter()
        scan = oracle._scan

        def counting(beta_word):
            scans[beta_word] += 1
            return scan(beta_word)

        monkeypatch.setattr(oracle, "_scan", counting)
        return scans

    def test_the_single_cycle_cases_scan_sn_zero_times(self, monkeypatch):
        scans = self.scans(monkeypatch)
        assert verify._check_single_cycle_enumerator(oracle.distribution, None) == []
        assert not scans

    def test_the_fpf_cases_scan_sn_zero_times(self, monkeypatch):
        scans = self.scans(monkeypatch)
        assert verify._check_fpf_enumerator(oracle.distribution, None) == []
        assert not scans

    def test_a_missing_alpha_is_reported(self):
        # the histogram is one short on profile (3,) for each beta, and
        # every single-cycle case has some
        def short(beta):
            dist = oracle.distribution(beta)
            profiles = dist.profiles.copy()
            profiles[(3,)] -= 1
            return dist._replace(profiles=profiles)

        failures = verify._check_single_cycle_enumerator(short, None)
        assert len(failures) == 4
        assert all(f.startswith("single-cycle set mismatch") and f.endswith("k=3") for f in failures)

    def test_a_foreign_alpha_is_reported(self, monkeypatch):
        # as many alphas as the bucket holds, no repeats, but one of another
        # profile: the set differs though the counts agree
        pairs = construct.single_cycle_pairs

        def swapping(beta, k):
            found = list(pairs(beta, k))
            if k == 4 and found:
                found[0] = (found[0][0], Permutation.identity(beta.degree))
            return found

        monkeypatch.setattr(construct, "single_cycle_pairs", swapping)
        failures = verify._check_single_cycle_enumerator(oracle.distribution, None)
        assert failures == [
            "single-cycle set mismatch: beta=(1 2 3 4 5 6) k=4",
            "single-cycle set mismatch: beta=(1 2 3 4 5) k=4",
            "single-cycle set mismatch: beta=(1 2 3 4) k=4",
        ]

    def test_an_fpf_alpha_at_another_distance_is_reported(self, monkeypatch):
        pairs = construct.fpf_pairs

        def swapping(beta, j):
            found = list(pairs(beta, j))
            if j == 2:
                found[0] = (found[0][0], Permutation.identity(beta.degree))
            return found

        monkeypatch.setattr(construct, "fpf_pairs", swapping)
        failures = verify._check_fpf_enumerator(oracle.distribution, None)
        assert failures == ["fpf set mismatch: m=2 j=2", "fpf set mismatch: m=3 j=2"]


class TestWalk:
    # the walk's tallies against the oracle's own routes, on every cycle
    # type with n <= 6
    def test_parity_tallies_match_parity_split(self):
        walk = verify._walks(6)
        for n in range(2, 7):
            for t in CycleType.all_types(n):
                beta = t.representative()
                split = oracle.parity_split(beta, max_degree=6)
                assert walk(beta).parity == [split[k] for k in range(n + 1)], t.parts()

    def test_only_the_pair_checks_betas_get_verdicts(self, monkeypatch):
        # at n-max 4 the enumerator cases of degree 5 and 6 read their
        # histograms and are not walked
        degrees: Counter = Counter()
        exact = blocks._cycle_verdict

        def counting(a, cycle, bad, w, host):
            degrees[len(w)] += 1
            return exact(a, cycle, bad, w, host)

        monkeypatch.setattr(blocks, "_cycle_verdict", counting)
        assert not any(failures for _, failures in verify.verification_checks(4, max_n=6))
        assert set(degrees) == {2, 3, 4}

    def test_distances_come_from_the_words(self, monkeypatch):
        # a scan that drops a bad point moves no alpha to another distance:
        # the walk counts each k from alpha*beta and beta*alpha, so the bad
        # counts adding up to k is a check of the scanned bad points
        betas = [t.representative() for n in range(2, 6) for t in CycleType.all_types(n)]
        want = [verify._walk(beta, 5).parity for beta in betas]
        drop_bad_point(monkeypatch)
        assert [verify._walk(beta, 5).parity for beta in betas] == want

    def test_walks_are_memoised_per_run(self, monkeypatch):
        calls: Counter = Counter()
        exact = verify._walk

        def counting(beta, max_n):
            calls[beta] += 1
            return exact(beta, max_n)

        monkeypatch.setattr(verify, "_walk", counting)
        walk = verify._walks(6)
        beta = CycleType.from_parts([3, 3]).representative()
        assert walk(beta) is walk(beta)
        assert calls == {beta: 1}
        assert verify._walks(6)(beta) is not walk(beta)

    def test_degree_cap(self):
        beta = CycleType.from_parts([3, 3]).representative()
        with pytest.raises(ValueError, match="exceeds the exhaustive bound 5"):
            verify._walks(5)(beta)


LATER_CHECKS = [
    "_check_profile_components", "_check_ncycle", "_check_transposition", "_check_fpf",
    "_check_pairs", "_check_centralizer_divisibility", "_check_conjugation_invariance",
    "_check_parity_split", "_check_single_cycle_enumerator", "_check_fpf_enumerator",
    "_check_egfs",
]


class TestLazyChecks:
    def test_arguments_are_checked_at_call_time(self, monkeypatch):
        monkeypatch.delenv(oracle.ENV_MAX_DEGREE, raising=False)
        for n_max in (9, 1, 0, -3):
            with pytest.raises(ValueError):
                verify.verification_checks(n_max)

    def test_one_step_runs_only_the_first_check(self, monkeypatch):
        def not_yet(*args):
            pytest.fail("a later check ran before the stream reached it")

        for name in LATER_CHECKS:
            monkeypatch.setattr(verify, name, not_yet)
        checks = verify.verification_checks(5, max_n=5)
        assert next(checks) == ("closed forms k<=4 vs brute force", [])
