from collections import Counter

import pytest

from kommute import blocks, construct, formulas, oracle, verify
from kommute.perm import CycleType, word_cycles


def word_is_even(word):
    # even iff n minus the number of cycles is even
    return (len(word) - len(word_cycles(word))) % 2 == 0


def per_pair_check_pairs(n_max, max_n):
    """
    The pair checks deciding every pair on its own, on Permutations and
    ``blocks.bad_points``: the reference for the walk's shared per-cycle
    verdicts and invariants behind ``verify._check_pairs``.
    """
    block_bad, census_bad = [], []
    for n, t, beta in verify._representatives(min(n_max, 6)):
        w = beta.word
        cycles, host = blocks._frame(w)
        max_len = max(len(c) for c in cycles)
        bound = formulas.support_bound(t)
        for alpha in oracle.enumerate_sn(n, max_degree=max_n):
            bp = frozenset(p - 1 for p in blocks.bad_points(alpha, beta))
            k = alpha.commute_distance(beta)
            if n <= 5:
                images = {alpha.word[p] for p in bp}
                touched = sorted(len(c) for c in cycles if not bp.isdisjoint(c))
                if touched != sorted(len(c) for c in cycles if not images.isdisjoint(c)):
                    census_bad.append(f"image census: alpha={alpha} beta={beta}")
            verdicts = (blocks._cycle_verdict(alpha.word, c, bp, w, host) for c in cycles)
            if not blocks._fold(verdicts, k):
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
    # the kernel's per-run block test: 0 is its "not a block"
    exact = blocks._image_mask
    monkeypatch.setattr(
        blocks, "_image_mask", lambda a, run, w, host: len(run) != 2 and exact(a, run, w, host)
    )


MUTATIONS = [drop_bad_point, add_bad_point, step_bad_points, reverse_runs, break_cut,
             truncate_profile, reject_two_strings]


class TestCheckPairs:
    def test_matches_per_pair_reference(self):
        for n_max in (2, 5, 6):
            got = verify._check_pairs(n_max, verify._walk)
            assert got == per_pair_check_pairs(n_max, n_max)
            assert not any(failures for _, failures in got)

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
    def test_mutations_fail_as_the_reference(self, monkeypatch, mutate):
        # the shared verdicts report the same failures, in the same order
        mutate(monkeypatch)
        got = verify._check_pairs(5, verify._walk)
        assert got == per_pair_check_pairs(5, 5)
        assert got[0][1]

    def test_mutation_at_degree_six_fails_as_the_reference(self, monkeypatch):
        reverse_runs(monkeypatch)
        got = verify._check_pairs(6, verify._walk)
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
        assert not any(failures for _, failures in verify._check_pairs(6, verify._walk))
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
        assert verify._check_single_cycle_enumerator(oracle.distribution, 8) == []
        assert not scans

    def test_the_fpf_cases_scan_sn_zero_times(self, monkeypatch):
        scans = self.scans(monkeypatch)
        assert verify._check_fpf_enumerator(oracle.distribution, 8) == []
        assert not scans

    def test_verify_reads_no_pair_stream(self, monkeypatch):
        # the checks read the per-lead streams that enumerate prints; the
        # pair streams are the paper's parameterization for library callers
        def refused(beta, k):
            raise AssertionError("verify read a pair stream")

        for name in ("single_cycle_pairs", "fpf_pairs"):
            monkeypatch.setattr(construct, name, refused)
        results = list(verify.verification_checks(6, max_n=6))
        assert len(results) == 13 and not any(failures for _, failures in results)

    def test_a_missing_alpha_is_reported(self):
        # the histogram is one short on profile (3,) for each beta, and
        # every single-cycle case has some
        def short(beta):
            dist = oracle.distribution(beta)
            profiles = dist.profiles.copy()
            profiles[(3,)] -= 1
            return dist._replace(profiles=profiles)

        failures = verify._check_single_cycle_enumerator(short, 8)
        assert len(failures) == 4
        assert all(f.startswith("single-cycle set mismatch") and f.endswith("k=3") for f in failures)

    def test_a_foreign_alpha_is_reported(self, monkeypatch):
        # as many alphas as the bucket holds, no repeats, but one of another
        # profile: the set differs though the counts agree
        leads = construct.single_cycle_leads

        def swapping(beta, k):
            # verify reads every lead alike, so the words come as one lead
            found = [word for words in leads(beta, k) for word in words]
            if k == 4 and found:
                found[0] = tuple(range(beta.degree))
            return [found]

        monkeypatch.setattr(construct, "single_cycle_leads", swapping)
        failures = verify._check_single_cycle_enumerator(oracle.distribution, 8)
        assert failures == [
            "single-cycle set mismatch: beta=(1 2 3 4 5 6) k=4",
            "single-cycle set mismatch: beta=(1 2 3 4 5) k=4",
            "single-cycle set mismatch: beta=(1 2 3 4) k=4",
        ]

    def test_an_fpf_alpha_at_another_distance_is_reported(self, monkeypatch):
        leads = construct.fpf_leads

        def swapping(beta, j):
            found = [word for words in leads(beta, j) for word in words]
            if j == 2:
                found[0] = tuple(range(beta.degree))
            return [found]

        monkeypatch.setattr(construct, "fpf_leads", swapping)
        failures = verify._check_fpf_enumerator(oracle.distribution, 8)
        assert failures == ["fpf set mismatch: m=2 j=2", "fpf set mismatch: m=3 j=2"]


class TestWalk:
    # the walk's tallies against the oracle's own routes, on every cycle
    # type with n <= 6
    def test_parity_tallies_match_parity_split(self):
        walk = verify._walk
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
        want = [verify._walk(beta).parity for beta in betas]
        drop_bad_point(monkeypatch)
        assert [verify._walk(beta).parity for beta in betas] == want

    def test_walks_and_histograms_are_memoised_per_run(self, monkeypatch):
        # one run walks each representative with n <= 6 once, for the pair,
        # divisibility and parity checks, and builds each distinct beta's
        # histogram once
        walks: Counter = Counter()
        exact_walk = verify._walk

        def counting_walk(beta):
            walks[beta] += 1
            return exact_walk(beta)

        hists: Counter = Counter()
        exact_hist = oracle.distribution

        def counting_hist(beta, *args, **kwargs):
            hists[beta] += 1
            return exact_hist(beta, *args, **kwargs)

        monkeypatch.setattr(verify, "_walk", counting_walk)
        monkeypatch.setattr(oracle, "distribution", counting_hist)
        assert not any(failures for _, failures in verify.verification_checks(6, max_n=6))
        representatives = {beta for _, _, beta in verify._representatives(6)}
        assert set(walks) == representatives and set(walks.values()) == {1}
        assert hists and set(hists.values()) == {1}
        assert not any(failures for _, failures in verify.verification_checks(6, max_n=6))
        assert set(walks) == representatives and set(walks.values()) == {2}

    def test_a_skewed_walk_fails_only_the_divisibility_check(self, monkeypatch):
        # one alpha of the 5-cycle's walk moved from k = 3 to k = 4: the
        # parity check skips a type with distinct odd parts, so only the
        # divisibility check, which reads the walk's totals, can see it
        exact = verify._walk

        def skewed(beta):
            w = exact(beta)
            if beta.cycle_type().parts() != (5,):
                return w
            parity = list(w.parity)
            (e3, o3), (e4, o4) = parity[3], parity[4]
            parity[3:5] = [(e3 - 1, o3), (e4 + 1, o4)]
            return w._replace(parity=parity)

        monkeypatch.setattr(verify, "_walk", skewed)
        failed = {name: f for name, f in verify.verification_checks(6, max_n=6) if f}
        assert failed == {"counts divisible by centralizer order": [
            "count not divisible n=5 type=(5,) k=3", "count not divisible n=5 type=(5,) k=4",
        ]}


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

    def test_the_cap_is_fixed_at_call_time(self, monkeypatch):
        # a cap lowered after the call reaches no check: the stream runs to
        # its end within the cap the call was checked against
        monkeypatch.setenv(oracle.ENV_MAX_DEGREE, "6")
        checks = verify.verification_checks(6)
        monkeypatch.setenv(oracle.ENV_MAX_DEGREE, "4")
        results = list(checks)
        assert len(results) == 13 and not any(failures for _, failures in results)

    def test_a_cap_below_two_is_refused_by_its_source(self, monkeypatch):
        # no degree is left to check, so the cap is refused before n_max is
        # read, naming the parameter when given, else the variable
        monkeypatch.setenv(oracle.ENV_MAX_DEGREE, "-3")
        for n_max, max_n, want in [
            (1, 1, "max_n must be at least 2, got 1"),
            (2, -3, "max_n must be at least 2, got -3"),
            (2, None, "KOMMUTE_MAX_BRUTE_N must be at least 2, got -3"),
        ]:
            with pytest.raises(ValueError) as raised:
                verify.verification_checks(n_max, max_n)
            assert str(raised.value) == want
        # an explicit cap does not read the variable
        assert verify._check_n_max(2, 2) == 2

    def test_histogram_ceiling_is_checked_at_call_time(self):
        # the stream is never advanced: no histogram is built before the refusal
        ceiling = oracle.HISTOGRAM_MAX_DEGREE
        with pytest.raises(ValueError, match=f"degree {ceiling + 1} exceeds {ceiling}, the ceiling"):
            verify.verification_checks(ceiling + 1, max_n=ceiling + 1)

    def test_one_step_runs_only_the_first_check(self, monkeypatch):
        def not_yet(*args):
            pytest.fail("a later check ran before the stream reached it")

        for name in LATER_CHECKS:
            monkeypatch.setattr(verify, name, not_yet)
        checks = verify.verification_checks(5, max_n=5)
        assert next(checks) == ("closed forms k<=4 vs brute force", [])


def plus_one(module, name, at=None):
    # the patch making ``module.name`` return its value + 1: at every
    # argument, or only at ``at``
    exact = getattr(module, name)
    if at is None:
        return module, name, lambda *args: exact(*args) + 1
    return module, name, lambda i: exact(i) + (i == at)


def parts_plus_one():
    exact = formulas.count_k4_parts
    return formulas, "count_k4_parts", lambda t: {prof: c + 1 for prof, c in exact(t).items()}


def first_twice(module, name):
    # the patch making the per-lead stream ``module.name`` yield its first
    # word twice, in the first lead
    exact = getattr(module, name)

    def twice(*args):
        leads = [list(words) for words in exact(*args)]
        leads[0] = leads[0][:1] + leads[0]
        return leads

    return module, name, twice


def one_more_alpha(k, where=lambda beta: True):
    # the exact histogram, with one more alpha at distance k for the betas ``where`` picks
    def hist(beta):
        dist = oracle.distribution(beta)
        if not where(beta):
            return dist
        return dist._replace(counts={**dist.counts, k: dist[k] + 1})

    return hist


def relabeled(beta):
    return beta != beta.cycle_type().representative()


def uneven_walk(beta):
    # the exact walk, with one more even alpha at each distance
    w = verify._walk(beta)
    return w._replace(parity=[(even + 1, odd) for even, odd in w.parity])


HIST = oracle.distribution
TKN = formulas.count_for_ncycle

# (the patch, if any; a check on a perturbed source; its first failure
# line).  At n_max = 4 the EGF check reads f(k) for k <= 6 and a(j) for j
# <= 4, so f(9) + 1 and a(7) + 1 break only the two series identities
FAILURE_LINES = [
    pytest.param(
        plus_one(formulas, "count_k0"), lambda: verify._check_formula_matrix(4, HIST),
        "c(0) n=2 type=(2,): 3 != 2", id="c0"),
    pytest.param(
        None, lambda: verify._check_formula_matrix(4, one_more_alpha(1)),
        "c(1)/c(2) nonzero for n=2 type=(2,)", id="c1-c2"),
    pytest.param(
        plus_one(formulas, "count_k3"), lambda: verify._check_formula_matrix(4, HIST),
        "c(3) n=2 type=(2,): 1 != 0", id="c3"),
    pytest.param(
        plus_one(formulas, "count_k4"), lambda: verify._check_formula_matrix(4, HIST),
        "c(4) n=2 type=(2,): 1 != 0", id="c4"),
    pytest.param(
        None, lambda: verify._check_formula_matrix(4, one_more_alpha(5)),
        "counts sum != n! for n=2 type=(2,)", id="n-factorial"),
    pytest.param(
        parts_plus_one(), lambda: verify._check_profile_components(4, HIST),
        "c(4) profile (4,) n=2 type=(2,): 1 != 0", id="profile"),
    pytest.param(
        None, lambda: verify._check_profile_components(4, one_more_alpha(4)),
        "c(4) profile totals n=2 type=(2,)", id="profile-totals"),
    pytest.param(
        plus_one(formulas, "transposition_count"), lambda: verify._check_transposition(4, HIST),
        "transposition n=2 k=0: 3 != 2", id="transposition"),
    pytest.param(
        plus_one(formulas, "fpf_involution_count"), lambda: verify._check_fpf(4, HIST),
        "fpf m=2 k=0: 9 != 8", id="fpf"),
    pytest.param(
        None, lambda: verify._check_centralizer_divisibility(4, uneven_walk),
        "count not divisible n=2 type=(2,) k=0", id="centralizer"),
    pytest.param(
        None, lambda: verify._check_conjugation_invariance(4, one_more_alpha(0, relabeled)),
        "conjugation changes counts: beta=(1 2 3) tau=(1 2)", id="conjugation"),
    pytest.param(
        None, lambda: verify._check_parity_split(4, uneven_walk, HIST),
        "parity split n=2 type=(2,) k=0: 2/1", id="parity"),
    pytest.param(
        first_twice(construct, "single_cycle_leads"),
        lambda: verify._check_single_cycle_enumerator(HIST, 8),
        "duplicate choices: beta=(1 2 3 4 5 6) k=3", id="single-cycle-duplicate"),
    pytest.param(
        plus_one(formulas, "single_cycle_count"),
        lambda: verify._check_single_cycle_enumerator(HIST, 8),
        "single-cycle count mismatch: beta=(1 2 3 4 5 6) k=3", id="single-cycle-count"),
    pytest.param(
        first_twice(construct, "fpf_leads"), lambda: verify._check_fpf_enumerator(HIST, 8),
        "duplicate choices: m=2 j=0", id="fpf-duplicate"),
    pytest.param(
        plus_one(formulas, "fpf_involution_count"),
        lambda: verify._check_fpf_enumerator(HIST, 8),
        "fpf count mismatch: m=2 j=0", id="fpf-count"),
    pytest.param(
        plus_one(formulas, "fpf_involution_count"), lambda: verify._check_egfs(4, TKN),
        "fpf EGF (2,0): 8 != 9", id="fpf-egf"),
    pytest.param(
        plus_one(formulas, "deranged_matchings", at=7), lambda: verify._check_egfs(4, TKN),
        "deranged-matching EGF identity fails at order 7", id="deranged-matching-egf"),
    pytest.param(
        plus_one(formulas, "successor_free_cycles", at=9), lambda: verify._check_egfs(4, TKN),
        "successor-free cycle EGF identity fails at order 9", id="successor-free-egf"),
]


class TestFailureLines:
    # the bytes of verify's FAIL blocks: each check, fed one perturbed
    # source, reports it first with exactly this line
    @pytest.mark.parametrize("patch, check, first", FAILURE_LINES)
    def test_first_failure_line(self, monkeypatch, patch, check, first):
        if patch:
            monkeypatch.setattr(*patch)
        assert check()[0] == first

    # "lonely 1-part" never comes alone: a profile with a 1 and no part
    # above 1 is all ones, and it sums to k unless k = 0
    @pytest.mark.parametrize("prof, bad, k, cycles, max_len, bound, want", [
        ((2,), (0, 1), 3, [(0, 1, 2, 3)], 4, 4, ["profile sum != distance"]),
        ((1, 1), (0, 2), 2, [(0, 1), (2, 3), (4, 5, 6)], 3, 6,
         ["all-ones profile", "lonely 1-part"]),
        ((3,), (0, 1, 2), 3, [(0, 1, 2)], 3, 2, ["distance above support bound"]),
        ((2, 1), (0, 1, 3), 3, [(0, 1, 2), (3, 4, 5)], 3, 6, ["1 bad point on max cycle"]),
    ], ids=["sum", "all-ones", "support-bound", "max-cycle"])
    def test_broken_invariants(self, prof, bad, k, cycles, max_len, bound, want):
        assert verify._broken_invariants(prof, bad, k, cycles, max_len, bound) == want
