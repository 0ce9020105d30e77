from collections import Counter

import pytest

from kommute import blocks, formulas, oracle, verify


def per_pair_check_pairs(n_max, max_n):
    """
    The pair checks deciding every pair on its own, the reference for the
    shared per-cycle verdicts and invariants of ``verify._check_pairs``.
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


def drop_bad_point(monkeypatch):
    exact = blocks.bad_points

    def dropping(alpha, beta):
        bad = exact(alpha, beta)
        return bad - {min(bad)} if bad else bad

    monkeypatch.setattr(blocks, "bad_points", dropping)


def add_bad_point(monkeypatch):
    exact = blocks.bad_points

    def adding(alpha, beta):
        bad = exact(alpha, beta)
        good = set(range(1, alpha.degree + 1)) - bad
        return bad | {min(good)} if good else bad

    monkeypatch.setattr(blocks, "bad_points", adding)


def step_bad_points(monkeypatch):
    # on the pairs with an even alpha, each bad point moves on to its
    # beta-image: the same count on each cycle, but a different set for
    # the same images of alpha
    exact = blocks.bad_points

    def stepping(alpha, beta):
        bad = exact(alpha, beta)
        return frozenset(map(beta, bad)) if alpha.is_even() else bad

    monkeypatch.setattr(blocks, "bad_points", stepping)


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
            got = verify._check_pairs(n_max, n_max)
            assert got == per_pair_check_pairs(n_max, n_max)
            assert not any(failures for _, failures in got)

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
    def test_mutations_fail_as_the_reference(self, monkeypatch, mutate):
        # the shared verdicts report the same failures, in the same order
        mutate(monkeypatch)
        got = verify._check_pairs(5, 5)
        assert got == per_pair_check_pairs(5, 5)
        assert got[0][1]

    def test_mutation_at_degree_six_fails_as_the_reference(self, monkeypatch):
        reverse_runs(monkeypatch)
        got = verify._check_pairs(6, 6)
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
        assert not any(failures for _, failures in verify._check_pairs(6, 6))
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

    def test_one_scan_per_single_cycle_case(self, monkeypatch):
        scans = self.scans(monkeypatch)
        assert verify._check_single_cycle_enumerator(None) == []
        assert len(scans) == 4 and set(scans.values()) == {1}

    def test_one_scan_per_fpf_case(self, monkeypatch):
        scans = self.scans(monkeypatch)
        assert verify._check_fpf_enumerator(None) == []
        assert len(scans) == 2 and set(scans.values()) == {1}

    def test_a_missing_alpha_is_reported(self, monkeypatch):
        # one alpha fewer in each nonempty brute bucket of profile (3,)
        bucket = oracle._bucket

        def losing(beta, key, wanted, max_degree=None):
            found = bucket(beta, key, wanted, max_degree)
            if found.get((3,)):
                found[(3,)].pop()
            return found

        monkeypatch.setattr(oracle, "_bucket", losing)
        failures = verify._check_single_cycle_enumerator(None)
        assert len(failures) == 4
        assert all(f.startswith("single-cycle set mismatch") and f.endswith("k=3") for f in failures)


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
