import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import kommute
from kommute import blocks, cli, construct, formulas, oracle, verify
from kommute.perm import CycleType, Permutation, all_permutations, parse_permutation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_transposition_formula(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--beta", "(1 2)", "--n", "4", "--k", "3"
        )
        assert code == 0
        record = json.loads(out)
        assert record["count"] == "16"
        assert record["method"] == "formula"
        assert record["provenance"] == "transposition"

    def test_brute(self, capsys):
        code, out, _ = run_cli(
            capsys,
            *"count --beta (1,2,3,4,5) --n 5 --k 5 --method brute".split(),
        )
        assert code == 0
        record = json.loads(out)
        assert record["count"] == "40"
        assert record["provenance"] == "exhaustive"

    def test_counts_are_decimal_strings(self, capsys):
        _, out, _ = run_cli(
            capsys, "count", "--beta", "()", "--n", "8", "--k", "0"
        )
        record = json.loads(out)
        assert record["count"] == "40320"
        assert isinstance(record["count"], str)

    def test_no_closed_form_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            *"count --beta (1,2,3)(4,5,6,7) --n 7 --k 5 --method formula".split(),
        )
        assert code == 2
        assert "brute" in err

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "count", "--beta", "(1 2", "--n", "4", "--k", "3")
        assert code == 1
        assert "position" in err

    def test_usage_error_exits_1(self, capsys):
        assert run_cli(capsys, "count", "--beta", "(1 2)")[0] == 1
        assert run_cli(capsys, "nonsense")[0] == 1
        assert run_cli(
            capsys, *"count --beta (1,2) --n 4 --k -1 --method brute".split()
        ) == (1, "", "kommute: error: k must be nonnegative\n")

    def test_brute_bound_exits_1(self, capsys, monkeypatch):
        # the CLI names its flag, the library its parameter
        monkeypatch.delenv(oracle.ENV_MAX_DEGREE, raising=False)
        code, _, err = run_cli(
            capsys, *"count --beta (1,2) --n 9 --k 3 --method brute".split()
        )
        assert code == 1
        assert err == (
            "kommute: error: degree 9 exceeds the exhaustive bound 8; "
            "raise it with --max-brute-n or KOMMUTE_MAX_BRUTE_N\n"
        )
        with pytest.raises(ValueError) as raised:
            oracle.distribution(Permutation.from_cycles([(1, 2)], 9))
        assert str(raised.value) == (
            "degree 9 exceeds the exhaustive bound 8; raise it with max_degree or KOMMUTE_MAX_BRUTE_N"
        )

    def test_brute_bound_env_not_an_integer_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("KOMMUTE_MAX_BRUTE_N", "abc")
        code, out, err = run_cli(
            capsys, *"count --beta (1,2) --n 4 --k 3 --method brute".split()
        )
        assert (code, out) == (1, "")
        assert err == "kommute: error: KOMMUTE_MAX_BRUTE_N must be an integer, got 'abc'\n"

    def test_jobs_do_not_change_output(self, capsys):
        argv = "count --beta (1,2,3)(4,5) --n 5 --k 3 --method brute".split()
        _, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
        _, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert out1 == out2

    def test_brute_golden_output(self, capsys):
        for beta, want in COUNT_BRUTE_S7.items():
            for jobs in ("1", "2"):
                got = [
                    run_cli(capsys, "count", "--beta", beta, "--n", "7", "--k", str(k),
                            "--method", "brute", "--jobs", jobs)
                    for k in range(8)
                ]
                assert got == [(0, line + "\n", "") for line in want.splitlines()], (beta, jobs)


class TestEnumerate:
    def test_single_cycle_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, *"enumerate --beta (1,2,3,4,5) --n 5 --k 3".split()
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 50
        assert len(set(lines)) == 50
        beta = parse_permutation("(1 2 3 4 5)", 5)
        sample = parse_permutation(lines[0], 5)
        assert sample.commute_distance(beta) == 3

    def test_json_records(self, capsys):
        code, out, _ = run_cli(
            capsys, *"enumerate --beta (1,2,3,4,5) --n 5 --k 3 --json".split()
        )
        assert code == 0
        beta = parse_permutation("(1 2 3 4 5)", 5)
        from kommute import blocks

        for line in out.splitlines():
            record = json.loads(line)
            alpha = parse_permutation(record["alpha"], 5)
            assert record["bad_points"] == sorted(blocks.bad_points(alpha, beta))

    def test_fpf_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, *"enumerate --beta (1,2)(3,4) --n 4 --k 4 --mode fpf".split()
        )
        assert code == 0
        assert len(out.splitlines()) == 16

    def test_fpf_mode_odd_k(self, capsys):
        code, _, err = run_cli(
            capsys, *"enumerate --beta (1,2)(3,4) --n 4 --k 3 --mode fpf".split()
        )
        assert code == 1
        assert "even" in err

    def test_deterministic(self, capsys):
        argv = "enumerate --beta (1,2,3)(4,5,6) --n 6 --k 3".split()
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_golden_output(self, capsys):
        for argv, (lines, digest) in ENUMERATE_GOLDEN.items():
            code, out, err = run_cli(capsys, *argv.split())
            got = (code, len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest(), err)
            assert got == (0, lines, digest, ""), argv

    def test_input_errors_unchanged_by_the_witness_cap(self, capsys):
        # the cap reads the closed form only where it applies, so the
        # builders still report their own errors
        for argv, message in [
            ("enumerate --beta (1,2,3) --n 3 --k 2", "the construction needs k >= 3"),
            ("enumerate --beta (1,2,3) --n 4 --k 2 --mode fpf", "fixed-point-free involution"),
            ("enumerate --beta (1,2)(3,4) --n 4 --k -2 --mode fpf", "j=-1 out of range 0..2"),
        ]:
            code, out, err = run_cli(capsys, *argv.split())
            assert (code, out) == (1, ""), argv
            assert message in err, argv
        # one pair (m = 1), which the fpf closed form does not cover
        assert run_cli(capsys, *"enumerate --beta (1,2) --n 2 --k 0 --mode fpf".split()) == (
            0, "()\n(1 2)\n", "")

    def test_golden_output_hashes_no_witness(self, capsys, monkeypatch):
        # the pair streams are injective, so the CLI sorts them without a set
        def unhashable(self):
            raise TypeError("enumerate hashed a witness")

        monkeypatch.setattr(Permutation, "__hash__", unhashable)
        self.test_golden_output(capsys)


# enumerate stdout: line count and SHA-256 of the bytes.  The single-mode beta
# has two 3-cycles and two fixed points, so each (source, target) pair has six
# outer maps.
ENUMERATE_GOLDEN = {
    "enumerate --beta (1,2,3)(4,5,6) --n 8 --k 3": (
        72, "2499e241634293366d4ae15810e4900fce368d2fd453b43031bc06292dbabcd6"),
    "enumerate --beta (1,2,3)(4,5,6) --n 8 --k 3 --json": (
        72, "9dbf904fe5629c811f7b0b140545c8497cb62ce61e08164e2875d02967dd789f"),
    "enumerate --beta (1,2)(3,4)(5,6)(7,8) --n 8 --k 4 --mode fpf": (
        4608, "edc11f7697bc820e44ddd62d229629dfcb030182af2d5d4fbbb029dc8a5fb47f"),
    "enumerate --beta (1,2)(3,4)(5,6)(7,8) --n 8 --k 4 --mode fpf --json": (
        4608, "ad31a9678a2051f3e2da2cf9b1836a17d51eb0c719ad7060478b29a4b6d664e0"),
}


def reference_enumerate_output(beta, witnesses, as_json):
    # the reference printer: Permutations sorted by their one-line images,
    # each formatted through cycles(), json.dumps and blocks.bad_points
    out = []
    for alpha in sorted(witnesses, key=lambda p: p.images):
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in alpha.cycles() if len(c) > 1)
        text = text or "()"
        if as_json:
            bad = sorted(blocks.bad_points(alpha, beta))
            text = json.dumps({"alpha": text, "bad_points": bad}, sort_keys=True)
        out.append(text + "\n")
    return "".join(out)


class TestWitnessPrinter:
    # (mode, beta, n, k); the beta cycles are written in no canonical order
    CASES = [
        ("single", "(1 2 3)", 3, 3),
        ("single", "(1 2 3 4 5)", 5, 3),
        ("single", "(1 2 3 4 5)", 5, 5),
        ("single", "(3 1 4)(6 2 5)", 6, 3),
        ("single", "(1 2 3 4)(5 6)", 7, 4),
        ("single", "(5 2 7 4 1 6)", 7, 4),
        ("single", "(1 2)", 4, 3),
        # beta fixes 1 and 2, so alpha(1) is 1 or 2 and the buckets of the
        # zero-based leading entries 2..6 stay empty
        ("single", "(3 4 5 6 7)", 7, 3),
        ("fpf", "(1 2)", 2, 0),
        ("fpf", "(1 2)(3 4)", 4, 0),
        ("fpf", "(1 2)(3 4)", 4, 4),
        ("fpf", "(4 1)(2 6)(5 3)", 6, 2),
        ("fpf", "(1 2)(3 4)(5 6)", 6, 4),
        ("fpf", "(1 2)(3 4)(5 6)", 6, 6),
    ]

    @staticmethod
    def witnesses(mode, beta, k):
        if mode == "single":
            return construct.enumerate_single_cycle(beta, k)
        return construct.enumerate_fpf(beta, k // 2)

    @pytest.mark.parametrize("mode,text,n,k", CASES)
    def test_bytes_match_the_permutation_path(self, capsys, mode, text, n, k):
        beta = parse_permutation(text, n)
        witnesses = self.witnesses(mode, beta, k)
        for flags in ([], ["--json"]):
            argv = ["enumerate", "--beta", text, "--n", str(n), "--k", str(k), "--mode", mode]
            got = run_cli(capsys, *argv, *flags)
            want = reference_enumerate_output(beta, witnesses, bool(flags))
            assert got == (0, want, ""), (argv, flags)

    @pytest.mark.parametrize(
        "mode,text,n,k",
        [c for c in CASES if c[0] == "fpf"] + [
            ("single", "(1 2 3 4 5 6)", 6, 4),
            ("single", "(1 2 3)(4 5 6)", 8, 3),
            ("single", "(2 5 1 4)(3 6 7 8)", 8, 3),
        ],
    )
    def test_json_bad_points_are_blocks_bad_points(self, capsys, mode, text, n, k):
        beta = parse_permutation(text, n)
        argv = ["enumerate", "--beta", text, "--n", str(n), "--k", str(k), "--mode", mode, "--json"]
        code, out, _ = run_cli(capsys, *argv)
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert len(records) == len(self.witnesses(mode, beta, k))
        for record in records:
            alpha = parse_permutation(record["alpha"], n)
            assert record["bad_points"] == sorted(blocks.bad_points(alpha, beta))

    def test_degree_above_256_refuses_or_prints_nothing(self, capsys):
        # bytes keys need every word entry below 256; above degree 256 every
        # nonzero witness count is above the cap, so the printer sees only
        # empty streams
        cap = f"kommute: error: the witnesses outnumber the witness cap {cli.MAX_WITNESSES}\n"
        fpf = "".join(f"({2 * i + 1} {2 * i + 2})" for i in range(150))
        for argv, want in [
            (["--beta", "(1 2 3)", "--n", "300", "--k", "3"], (1, "", cap)),
            (["--beta", "(1 2 3)", "--n", "300", "--k", "4"], (0, "", "")),
            (["--beta", fpf, "--n", "300", "--k", "4", "--mode", "fpf"], (1, "", cap)),
        ]:
            assert run_cli(capsys, "enumerate", *argv) == want, argv
        assert list(cli._sorted_words(iter(()), 300)) == []

    def test_an_entry_above_255_fails_before_any_line(self, capsys, monkeypatch):
        # the fail-safe behind the byte keys: a word with an entry >= 256
        # raises before any word is yielded, so no wrong line is printed
        word = tuple(range(257))[::-1]
        with pytest.raises(ValueError, match=r"^byte must be in range\(0, 256\)$"):
            next(cli._sorted_words(iter([iter([word])]), 257))
        monkeypatch.setattr(construct, "single_cycle_leads", lambda beta, k: iter([iter([word])]))
        argv = ["enumerate", "--beta", "(1 2 3)", "--n", "257", "--k", "4"]
        assert run_cli(capsys, *argv) == (1, "", "kommute: error: byte must be in range(0, 256)\n")

    # every row and outer map of every frame is checked before the first
    # line, so a fault in a frame after the first leaves stdout empty
    def assert_fails_before_any_line(self, capsys, argv):
        code, out, err = run_cli(capsys, "enumerate", *argv.split())
        assert (code, out) == (1, "")
        assert re.fullmatch(r"kommute: error: images \(.*\) are not a bijection onto \(.*\)\n", err), err

    def test_a_colliding_outer_map_prints_no_line(self, capsys, monkeypatch):
        real, frames = construct._outer_rows, []

        def outer_rows(cycles, sources, targets):
            # from the second frame on, the second outer row sends two
            # points to one image
            points, rows = real(cycles, sources, targets)
            frames.append(targets)
            rows = list(rows)
            if len(frames) > 1:
                rows[1][0] = rows[1][1]
            return points, iter(rows)

        monkeypatch.setattr(construct, "_outer_rows", outer_rows)
        self.assert_fails_before_any_line(capsys, "--beta (1,2,3)(4,5,6) --n 8 --k 3")
        assert len(frames) == 2

    def test_a_colliding_inner_assignment_prints_no_line(self, capsys, monkeypatch):
        real, frames = construct.perfect_matchings, []

        def matchings(points):
            # from the second frame on, a first matching of the four target
            # points that uses a point twice
            if len(points) == 4:
                frames.append(points)
                if len(frames) > 1:
                    yield ((points[0], points[2]), (points[0], points[3]))
            yield from real(points)

        monkeypatch.setattr(construct, "perfect_matchings", matchings)
        self.assert_fails_before_any_line(capsys, "--beta (1,2)(3,4)(5,6) --n 6 --k 4 --mode fpf")
        assert len(frames) == 2

    def test_lead_0_is_written_before_lead_1_is_built(self, capsys, monkeypatch):
        # the lines of alpha(1) = 1 come out before any word of alpha(1) = 2
        argv = "enumerate --beta (1,2,3,4,5) --n 5 --k 3".split()
        code, whole, _ = run_cli(capsys, *argv)
        beta = parse_permutation("(1 2 3 4 5)", 5)
        first = sum(1 for _ in next(construct.single_cycle_leads(beta, 3)))
        assert code == 0 and 0 < first < len(whole.splitlines())
        real = construct.single_cycle_leads

        def refused():
            raise ValueError("lead 1 advanced")
            yield

        def leads(beta, k):
            streams = real(beta, k)
            yield next(streams)
            yield refused()

        monkeypatch.setattr(construct, "single_cycle_leads", leads)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "kommute: error: lead 1 advanced\n")
        assert out.splitlines() == whole.splitlines()[:first]

    def test_bytes_and_tuple_keys_sort_alike(self):
        beta = parse_permutation("(1 2 3 4 5 6)", 6)
        witnesses = list(all_permutations(6))
        random.Random(3).shuffle(witnesses)
        leads = [[p.word for p in witnesses if p.word[0] == lead] for lead in range(6)]
        words = list(cli._sorted_words(leads, 6))
        assert all(type(w) is bytes for w in words)
        assert [tuple(w) for w in words] == [p.word for p in all_permutations(6)]
        for as_json in (False, True):
            got = "".join(cli._witness_lines(words, beta.word, as_json))
            assert got == reference_enumerate_output(beta, witnesses, as_json)

    def test_memory_per_witness(self):
        # the fpf request with m = 4, j = 3: 12,288 witnesses.  Only one
        # leading entry's witnesses are held, as 8 bytes each in one bucket
        # per second entry, next to the packed frames: about 10 B a witness.
        # Holding every witness in one bucket per leading entry took about
        # 19.5 B, bytes keys held whole about 57 B, and sorting Permutations
        # about 154 B
        argv = "enumerate --beta (1,2)(3,4)(5,6)(7,8) --n 8 --k 6 --mode fpf".split()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert cli.main(argv) == 0  # warm-up: imports and first-call caches
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peak - base) / 12_288 < 14


class TestVerify:
    def test_small_degrees_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "5")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 13

    def test_degree_seven_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "7")
        assert code == 0
        assert "FAIL" not in out

    def test_corrupted_f_reported(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4", "--corrupt-f")
        assert code == 3
        assert "FAIL" in out
        assert "T(5," in out

    def test_histogram_ceiling_refused_at_once(self, capsys):
        # refused before any histogram is built; the 16-cycle alone takes 15 s
        start = time.perf_counter()
        got = run_cli(capsys, "verify", "--n-max", "17", "--max-brute-n", "17")
        assert time.perf_counter() - start < 1
        assert got == (
            1,
            "",
            "kommute: error: degree 17 exceeds 16, the ceiling of the exhaustive "
            "histogram, whose memory about doubles with each degree\n",
        )

    def test_n_max_above_bound_rejected(self, capsys, monkeypatch):
        # the CLI names its flags, the library its parameters
        monkeypatch.delenv(oracle.ENV_MAX_DEGREE, raising=False)
        assert run_cli(capsys, "verify", "--n-max", "9") == (
            1,
            "",
            "kommute: error: --n-max 9 exceeds the brute-force cap 8; "
            "raise it with --max-brute-n or KOMMUTE_MAX_BRUTE_N\n",
        )
        code, _, err = run_cli(capsys, "verify", "--n-max", "7", "--max-brute-n", "6")
        assert (code, err) == (
            1,
            "kommute: error: --n-max 7 exceeds the brute-force cap 6; "
            "raise it with --max-brute-n or KOMMUTE_MAX_BRUTE_N\n",
        )
        with pytest.raises(ValueError) as raised:
            verify.verification_checks(9)
        assert str(raised.value) == (
            "n_max 9 exceeds the brute-force cap 8; raise it with max_n or KOMMUTE_MAX_BRUTE_N"
        )

    def test_n_max_below_two_rejected(self, capsys, monkeypatch):
        # below degree 2 there is nothing to compare against brute force
        monkeypatch.delenv(oracle.ENV_MAX_DEGREE, raising=False)
        for n_max in ("1", "0", "-3"):
            assert run_cli(capsys, "verify", "--n-max", n_max) == (
                1, "", "kommute: error: --n-max must be between 2 and 8\n"
            )
            with pytest.raises(ValueError) as raised:
                verify.verification_checks(int(n_max))
            assert str(raised.value) == "n_max must be between 2 and 8"

    def test_internal_error_after_printed_verdicts(self, capsys, monkeypatch):
        # the first verdict is already out when the second check breaks
        def broken(n_max, hist):
            raise AssertionError("profile table broken")

        monkeypatch.setattr(verify, "_check_profile_components", broken)
        assert run_cli(capsys, "verify", "--n-max", "4") == (
            3,
            "PASS closed forms k<=4 vs brute force\n",
            "kommute: internal invariant violated: profile table broken\n",
        )

    def test_golden_output(self, capsys):
        assert run_cli(capsys, "verify", "--n-max", "6") == (0, VERIFY_6, "")
        got = run_cli(capsys, "verify", "--n-max", "4", "--corrupt-f")
        assert got == (3, VERIFY_4_CORRUPT, "")

    @pytest.mark.parametrize("argv, code, digest", [
        (["--n-max", "7", "--max-brute-n", "7", "--corrupt-f"], 3,
         "4d00876f2a9cbf14435a31a0bae0c279ad1d1da8e0e499a2c8a3e2b9fa6ed8cb"),
        (["--n-max", "8", "--max-brute-n", "8"], 0,
         "acf4a7435c9ffd8603b12d9d17947f7c4172f0449849d0c6b1768ea81b20775f"),
        (["--n-max", "4", "--max-brute-n", "6"], 0,
         "a9ee94196267691786dbf31c72e487a299d33a7898a1ba4b217cdd387e4fc708"),
        (["--n-max", "5", "--max-brute-n", "5"], 0,
         "9eb56cd480f42ffed05ddea21a2cfa7a3ecb609d8a95e2e410d87da6a6dab619"),
    ])
    def test_golden_benchmark_shapes(self, capsys, argv, code, digest):
        # the benchmark's own request shapes, its warm-up, and an n-max
        # below 6, where the enumerator cases lie above n-max; pinned
        # by the sha256 of the stdout that earlier, independent routes
        # printed (per-pair Permutation scans, the walk's own tallies)
        got, out, err = run_cli(capsys, "verify", *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, "")

    def test_each_beta_scanned_once(self, monkeypatch):
        scans: Counter = Counter()
        exhaustive = oracle.distribution

        def counting(beta, *args, **kwargs):
            scans[beta] += 1
            return exhaustive(beta, *args, **kwargs)

        monkeypatch.setattr(oracle, "distribution", counting)
        results = verify.verification_checks(7, max_n=7)
        assert not any(failures for _, failures in results)
        assert scans and set(scans.values()) == {1}

    def test_parity_split_scans_each_beta_once(self, monkeypatch):
        scans: Counter = Counter()
        scan = oracle._scan

        def counting(beta_word):
            scans[beta_word] += 1
            return scan(beta_word)

        monkeypatch.setattr(oracle, "_scan", counting)
        hist = functools.lru_cache(maxsize=None)(oracle.distribution)
        assert verify._check_parity_split(7, verify._walks(7), hist) == []
        assert scans and set(scans.values()) == {1}

    def test_one_sn_walk_per_beta(self, monkeypatch):
        # checks 6 and 10 share one scan of S_n per beta: the 28
        # representatives with n <= 6
        walks: Counter = Counter()
        scan = oracle._scan

        def counting(beta_word):
            walks[beta_word] += 1
            return scan(beta_word)

        monkeypatch.setattr(oracle, "_scan", counting)
        monkeypatch.setattr(oracle, "enumerate_sn", None)
        results = verify.verification_checks(6, max_n=6)
        assert not any(failures for _, failures in results)
        assert set(walks.values()) == {1}
        assert Counter(map(len, walks)) == {
            n: sum(1 for _ in CycleType.all_types(n)) for n in range(2, 7)
        }
        assert len(walks) == 28

    def test_one_scan_per_beta_across_the_walking_checks(self, monkeypatch):
        # the pair checks walk each beta with n <= 6; the parity and
        # enumerator checks scan nothing more
        scans: Counter = Counter()
        scan = oracle._scan

        def counting(beta_word):
            scans[beta_word] += 1
            return scan(beta_word)

        monkeypatch.setattr(oracle, "_scan", counting)
        checks = verify.verification_checks(7, max_n=7)
        names = []
        for name, failures in checks:
            assert failures == [], name
            names.append(name)
            if name == "image cycle census":
                walked = dict(scans)
        assert names[5:7] == ["block characterization and profile invariants", "image cycle census"]
        assert scans == walked and len(scans) == 28 and set(scans.values()) == {1}

    def test_bad_points_computed_once_per_pair(self, monkeypatch):
        # one scanned alpha per pair: n! alphas for each of the p(n) betas,
        # n = 2..6, and no call to the Permutation-based blocks.bad_points
        # outside the enumerator check's membership test
        alphas = 0
        scan = oracle._scan

        def counting(beta_word):
            nonlocal alphas
            for bad, a in scan(beta_word):
                alphas += 1
                yield bad, a

        monkeypatch.setattr(oracle, "_scan", counting)
        calls = Counter()
        exact = blocks.bad_points

        def counting_bad(alpha, beta):
            calls[beta] += 1
            return exact(alpha, beta)

        monkeypatch.setattr(blocks, "bad_points", counting_bad)
        results = verify.verification_checks(6, max_n=6)
        names = [name for name, failures in results if not failures]
        assert len(names) == 13
        assert alphas == 2 * 2 + 6 * 3 + 24 * 5 + 120 * 7 + 720 * 11 == 8902
        assert len(calls) == 4  # one beta per single-cycle case
        assert sum(calls.values()) == sum(
            formulas.single_cycle_count(beta.cycle_type(), k)
            for beta in calls for k in (3, 4, 5)
        )

    def change_scanned_bad_points(self, monkeypatch, change):
        # the walk reads each alpha's bad points from oracle._scan
        scan = oracle._scan

        def changed(beta_word):
            for bad, a in scan(beta_word):
                yield tuple(sorted(change(set(bad), len(a)))), a

        monkeypatch.setattr(oracle, "_scan", changed)

    def test_dropped_bad_point_fails_verify(self, capsys, monkeypatch):
        self.change_scanned_bad_points(monkeypatch, lambda bad, n: bad - {min(bad)} if bad else bad)
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
        assert code == 3
        assert "FAIL block characterization and profile invariants" in out

    def test_added_bad_point_fails_verify(self, capsys, monkeypatch):
        def adding(bad, n):
            good = set(range(n)) - bad
            return bad | {min(good)} if good else bad

        self.change_scanned_bad_points(monkeypatch, adding)
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
        assert code == 3
        assert "FAIL block characterization and profile invariants" in out

    def test_broken_block_walk_fails_verify(self, capsys, monkeypatch):
        def broken(cycle, bad, start):
            raise ValueError("walk broken")

        monkeypatch.setattr(blocks, "_cut", broken)
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
        assert code == 3
        assert "FAIL block characterization and profile invariants" in out

    def test_every_brute_force_cap_from_2_to_8(self, capsys, monkeypatch):
        # the enumerator checks keep to the cases the cap allows
        for cap in range(2, 9):
            code, out, err = run_cli(capsys, "verify", "--n-max", str(cap), "--max-brute-n", str(cap))
            assert (code, out.splitlines()[-1], err) == (
                0, f"13/13 checks passed (n_max={cap})", ""), cap
        monkeypatch.setenv(oracle.ENV_MAX_DEGREE, "4")
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
        assert (code, out.splitlines()[-1]) == (0, "13/13 checks passed (n_max=4)")

    def test_repeating_fpf_stream_fails_verify(self, monkeypatch):
        leads = construct.fpf_leads
        monkeypatch.setattr(construct, "fpf_leads", lambda beta, j: [*map(list, leads(beta, j))] * 2)
        assert "duplicate choices: m=2 j=2" in verify._check_fpf_enumerator(oracle.distribution, None)


VERIFY_6 = """\
PASS closed forms k<=4 vs brute force
PASS distance-4 profile components vs brute force
PASS n-cycle counts T(k,n) vs brute force
PASS transposition counts vs brute force
PASS fixed-point-free involution counts vs brute force
PASS block characterization and profile invariants
PASS image cycle census
PASS counts divisible by centralizer order
PASS conjugation invariance of counts
PASS even/odd split
PASS single-cycle enumerator vs brute filter
PASS fpf enumerator vs brute filter
PASS generating function coefficients
13/13 checks passed (n_max=6)
"""

VERIFY_4_CORRUPT = """\
PASS closed forms k<=4 vs brute force
PASS distance-4 profile components vs brute force
FAIL n-cycle counts T(k,n) vs brute force (8 case(s))
     sum_k T(k,5) != 5!
     sum_k T(k,6) != 6!
     sum_k T(k,7) != 7!
     sum_k T(k,8) != 8!
     sum_k T(k,9) != 9!
     ... and 3 more
PASS transposition counts vs brute force
PASS fixed-point-free involution counts vs brute force
PASS block characterization and profile invariants
PASS image cycle census
PASS counts divisible by centralizer order
PASS conjugation invariance of counts
PASS even/odd split
PASS single-cycle enumerator vs brute filter
PASS fpf enumerator vs brute filter
FAIL generating function coefficients (2 case(s))
     T(5,5) EGF coefficient 40 != 45
     T(5,6) EGF coefficient 288 != 324
11/13 checks passed (n_max=4)
"""


# count --method brute for k = 0..7, the same for any --jobs
COUNT_BRUTE_S7 = {
    "(1 2 3 4 5 6 7)": """\
{"beta": "(1 2 3 4 5 6 7)", "count": "7", "k": 0, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4 5 6 7)", "count": "0", "k": 1, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4 5 6 7)", "count": "0", "k": 2, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4 5 6 7)", "count": "245", "k": 3, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4 5 6 7)", "count": "245", "k": 4, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4 5 6 7)", "count": "1176", "k": 5, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4 5 6 7)", "count": "1764", "k": 6, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4 5 6 7)", "count": "1603", "k": 7, "method": "brute", "n": 7, "provenance": "exhaustive"}
""",
    "(1 2 3 4)(5 6 7)": """\
{"beta": "(1 2 3 4)(5 6 7)", "count": "12", "k": 0, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4)(5 6 7)", "count": "0", "k": 1, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4)(5 6 7)", "count": "0", "k": 2, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4)(5 6 7)", "count": "204", "k": 3, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4)(5 6 7)", "count": "300", "k": 4, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4)(5 6 7)", "count": "1152", "k": 5, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4)(5 6 7)", "count": "1776", "k": 6, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3 4)(5 6 7)", "count": "1596", "k": 7, "method": "brute", "n": 7, "provenance": "exhaustive"}
""",
    "(1 2 3)(4 5)(6 7)": """\
{"beta": "(1 2 3)(4 5)(6 7)", "count": "24", "k": 0, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3)(4 5)(6 7)", "count": "0", "k": 1, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3)(4 5)(6 7)", "count": "0", "k": 2, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3)(4 5)(6 7)", "count": "312", "k": 3, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3)(4 5)(6 7)", "count": "336", "k": 4, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3)(4 5)(6 7)", "count": "864", "k": 5, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3)(4 5)(6 7)", "count": "1728", "k": 6, "method": "brute", "n": 7, "provenance": "exhaustive"}
{"beta": "(1 2 3)(4 5)(6 7)", "count": "1776", "k": 7, "method": "brute", "n": 7, "provenance": "exhaustive"}
""",
}


def random_beta_text(rng, n):
    # cycle notation of a random permutation of degree n, fixed points omitted
    points = list(range(1, n + 1))
    rng.shuffle(points)
    cycles, i = [], 0
    while i < n:
        length = rng.randint(1, n - i)
        cycles.append(points[i : i + length])
        i += length
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles if len(c) > 1)


def reference_count_output(beta_text, n, k, method):
    # the record as json.dumps(..., sort_keys=True) prints it, from the
    # library's own values; None where no closed form applies
    beta = parse_permutation(beta_text, n)
    if method == "brute":
        value, provenance = oracle.distribution(beta, max_degree=n)[k], "exhaustive"
    else:
        try:
            value, provenance = formulas.count(beta.cycle_type(), k)
        except formulas.NoClosedFormError:
            return None
    record = {
        "n": n,
        "beta": beta.cycle_string(),
        "k": k,
        "count": str(value),
        "method": method,
        "provenance": provenance,
    }
    return json.dumps(record, sort_keys=True) + "\n"


def count_requests():
    # seeded (beta, n, k, method): formula for n <= 30, brute force for n <= 7,
    # k in 0..5, n, n + 3 and 10**25, and one request of degree 10,000
    rng = random.Random(25)
    requests = [("(" + " ".join(map(str, range(1, 10001))) + ")", 10_000, 4, "formula")]
    while len(requests) < 121:
        method = rng.choice(["formula", "formula", "brute"])
        n = rng.randint(1, 7 if method == "brute" else 30)
        k = rng.choice([0, 1, 2, 3, 4, 5, n, n + 3, 10**25])
        requests.append((random_beta_text(rng, n), n, k, method))
    return requests


class TestHandWrittenRecords:
    # count and table/gf write their lines by hand; these pin the bytes to
    # what json.dumps(sort_keys=True) and csv.writer(lineterminator="\n") give

    def test_count_matches_json_dumps(self, capsys):
        exits = Counter()
        for beta_text, n, k, method in count_requests():
            argv = ["count", "--beta", beta_text, "--n", str(n), "--k", str(k), "--method", method]
            code, out, err = run_cli(capsys, *argv, "--max-brute-n", "7")
            want = reference_count_output(beta_text, n, k, method)
            exits[code] += 1
            if want is None:
                assert (code, out) == (2, ""), argv
            else:
                assert (code, out, err) == (0, want, ""), argv
        # both outcomes occur, and most requests print a record
        assert exits[2] and exits[0] > 60 and set(exits) == {0, 2}, exits

    @pytest.mark.parametrize(
        "kind, n_maxes",
        [
            ("table tkn", (0, 1, 2, 3, 7, 15, 30, 31)),
            ("table transposition", (0, 1, 2, 3, 7, 15, 30, 31)),
            ("table fpf", (0, 1, 2, 3, 7, 15, 30, 31)),
            ("gf tkn", (0, 1, 2, 5, 11, 14, 20, 21)),
            ("gf fpf", (0, 1, 2, 5, 11, 14, 20, 21)),
        ],
    )
    def test_tables_match_csv_writer(self, capsys, monkeypatch, kind, n_maxes):
        def csv_writer_rows(header, rows):
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

        command, kind = kind.split()
        for n_max in n_maxes:
            argv = [command, "--kind", kind, "--n-max", str(n_max)]
            got = run_cli(capsys, *argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_write_csv", csv_writer_rows)
                want = run_cli(capsys, *argv)
            assert got == want, argv


class TestTable:
    def test_tkn_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--kind", "tkn", "--n-max", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k=0,k=1,k=2,k=3,k=4,k=5"
        assert lines[-1] == "5,5,0,0,50,25,40"
        assert "\r" not in out

    def test_transposition_row(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--kind", "transposition", "--n-max", "4")
        lines = out.splitlines()
        assert lines[0] == "n,k=0,k=3,k=4"
        assert lines[-1] == "4,4,16,4"

    def test_fpf_row(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--kind", "fpf", "--n-max", "3")
        lines = out.splitlines()
        assert lines[1] == "2,8,0,16,"

    def test_bound(self, capsys):
        assert run_cli(capsys, "table", "--kind", "tkn", "--n-max", "31")[0] == 1


class TestGf:
    def test_tkn_matches_formula(self, capsys):
        _, out, _ = run_cli(capsys, "gf", "--kind", "tkn", "--n-max", "6")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for row in rows:
            n = int(row[0])
            for k in range(n + 1):
                assert int(row[1 + k]) == formulas.count_for_ncycle(k, n)

    def test_fpf_matches_formula(self, capsys):
        _, out, _ = run_cli(capsys, "gf", "--kind", "fpf", "--n-max", "5")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for row in rows:
            m = int(row[0])
            if m < 2:
                continue
            for j in range(m + 1):
                assert int(row[1 + j]) == formulas.fpf_involution_count(2 * j, m)


class TestOeis:
    def test_a000757(self, capsys):
        _, out, _ = run_cli(capsys, "oeis", "--sequence", "A000757", "--count", "8")
        assert out.splitlines() == ["1", "0", "0", "1", "1", "8", "36", "229"]

    def test_a053871(self, capsys):
        _, out, _ = run_cli(capsys, "oeis", "--sequence", "A053871", "--count", "6")
        assert out.splitlines() == ["1", "0", "2", "8", "60", "544"]

    def test_a233440_triangle(self, capsys):
        _, out, _ = run_cli(capsys, "oeis", "--sequence", "A233440", "--count", "9")
        # rows n=1: 1,0; n=2: 2,0,0; n=3: 3,0,0,3
        assert out.splitlines() == ["1", "0", "2", "0", "0", "3", "0", "0", "3"]

    def test_transposition_family(self, capsys):
        _, out, _ = run_cli(capsys, "oeis", "--sequence", "A208528", "--count", "5")
        assert out.splitlines() == ["0", "4", "16", "72", "384"]
        _, out, _ = run_cli(capsys, "oeis", "--sequence", "A208529", "--count", "5")
        assert out.splitlines() == ["2", "2", "4", "12", "48"]
        _, out, _ = run_cli(capsys, "oeis", "--sequence", "A098916", "--count", "5")
        assert out.splitlines() == ["0", "0", "4", "36", "288"]

    def test_unknown_sequence(self, capsys):
        assert run_cli(capsys, "oeis", "--sequence", "A000001", "--count", "3")[0] == 1

    def test_count_cap(self, capsys):
        assert run_cli(capsys, "oeis", "--sequence", "A000757", "--count", "501")[0] == 1
        assert run_cli(capsys, "oeis", "--sequence", "A000757", "--count", "0") == (
            1, "", "kommute: error: --count must be positive\n"
        )

    @pytest.mark.parametrize(
        "sequence,cap",
        [("A000757", 500), ("A053871", 500), ("A233440", 2000),
         ("A208529", 200), ("A208528", 200), ("A098916", 200)],
    )
    def test_each_sequence_stops_at_its_cap(self, capsys, sequence, cap):
        code, out, err = run_cli(capsys, "oeis", "--sequence", sequence, "--count", str(cap + 1))
        assert (code, out, err) == (1, "", f"kommute: error: at most {cap} terms\n")


# -- the option table and its two parsers ------------------------------------


def argparse_vars(argv):
    # what argparse parses argv to, or None where it exits (help or a usage error)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def option_words(flag, keywords, second=False):
    # one option given once, with a valid value (another one when second)
    if "action" in keywords:
        return [flag]
    if "choices" in keywords:
        value = keywords["choices"][-1 if second else 0]
    elif keywords.get("type") is int:
        value = "5" if second else "3"
    else:
        value = "(1 2)(3 4)" if second else "(1,2,3)"
    return [flag, value]


def command_lines(command):
    # (argv, whether the direct parser must take it) for one subcommand:
    # every order of its options, with and without each optional one, then
    # the table-order line changed in each way argparse alone may answer
    options = cli._COMMANDS[command][1]
    required = [f for f, kw in options.items() if kw.get("required")]
    optional = [f for f in options if f not in required]
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            for order in itertools.permutations(required + list(extra)):
                words = [w for f in order for w in option_words(f, options[f])]
                yield [command, *words], True
    words = {f: option_words(f, kw) for f, kw in options.items()}
    line = [w for f in options for w in words[f]]

    def replaced(flag, new):
        return [command] + [w for f in options for w in (new if f == flag else words[f])]

    for flag, keywords in options.items():
        yield [command, *line, *option_words(flag, keywords, second=True)], True
        yield [command, *line, *words[flag]], True
        if len(flag) > 3:
            yield replaced(flag, [flag[:-1], *words[flag][1:]]), False
        if "action" not in keywords:
            yield replaced(flag, [f"{flag}={words[flag][1]}"]), False
            yield replaced(flag, [flag]), False
            # only a plain string option takes a value that is no int or choice
            plain = keywords.get("type") is not int and "choices" not in keywords
            for value in ("-1", "-x", "-", "--", "--beta", "", "nope", "1.5"):
                yield replaced(flag, [flag, value]), plain and not value.startswith("-")
            if keywords.get("type") is int:
                for good in (" 3", "+3", "1_0", "٣", "007"):
                    yield replaced(flag, [flag, good]), True
        if keywords.get("required"):
            yield replaced(flag, []), False
    for i in range(1, len(line) + 2):
        for word in ("-h", "--help", "--", "--bogus", "extra", "-x"):
            yield [command, *line[: i - 1], word, *line[i - 1 :]], False
    yield ["-h", command, *line], False
    yield ["--", command, *line], False


class TestDirectParser:
    # the direct parser returns argparse's namespace or declines, and every
    # plain command line, perfbench's among them, takes it

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_agrees_with_argparse(self, command):
        direct = 0
        for argv, must_parse in command_lines(command):
            got = cli._direct_args(argv)
            if got is not None:
                direct += 1
                assert vars(got) == argparse_vars(argv), argv
            assert (got is not None) == must_parse, argv
        assert direct > 0

    def test_lines_without_a_subcommand_go_to_argparse(self):
        for argv in ([], ["--help"], ["-h"], ["nonsense"], ["--beta", "(1,2)"], ["COUNT"]):
            assert cli._direct_args(argv) is None, argv

    def test_every_benchmark_request_parses_directly(self, monkeypatch):
        # the decks are read from perfbench/workloads.py, which stays as it is
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        argvs = [workloads.WARMUP[w] for w in workloads.WORKLOADS]
        for workload in workloads.WORKLOADS:
            for deck in itertools.islice(workloads.decks(workload, 1), 2):
                argvs += [request.argv for request in deck]
        assert len(argvs) > 100
        for argv in argvs:
            got = cli._direct_args(list(argv))
            assert got is not None, argv
            assert vars(got) == argparse_vars(list(argv)), argv

    def test_reads_sys_argv_without_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["kommute", "count", "--beta", "(1 2)", "--n", "4", "--k", "3"])
        assert cli.main() == 0
        assert json.loads(capsys.readouterr().out)["count"] == "16"

    # `kommute --help` and `kommute count --help` at 80 columns, as argparse
    # prints them on Python 3.10 and 3.11
    HELP = {
        (): """\
usage: kommute [-h] {count,enumerate,verify,table,gf,oeis} ...

permutations at a given Hamming commutation distance

positional arguments:
  {count,enumerate,verify,table,gf,oeis}
    count               count permutations at distance k from beta
    enumerate           stream constructively built witnesses
    verify              run every identity check and report pass/fail
    table               CSV table of closed-form counts
    gf                  CSV of generating-function coefficients
    oeis                terms of a related OEIS sequence, one per line

options:
  -h, --help            show this help message and exit
""",
        ("count",): """\
usage: kommute count [-h] --beta BETA --n N --k K [--method {formula,brute}]
                     [--jobs JOBS] [--max-brute-n MAX_BRUTE_N]

options:
  -h, --help            show this help message and exit
  --beta BETA           cycle notation, e.g. '(1 2)(3 4 5)'
  --n N                 degree of beta
  --k K                 commutation distance
  --method {formula,brute}
  --jobs JOBS           ignored; brute force runs in one process
  --max-brute-n MAX_BRUTE_N
                        raise the brute-force degree cap
""",
    }

    @pytest.mark.parametrize("command", list(HELP))
    def test_help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(capsys, *command, "--help") == (0, self.HELP[command], "")


def child_env(**extra):
    # a child interpreter imports the kommute this process imported, also
    # when pytest found it through its own pythonpath setting
    path = [os.path.dirname(os.path.dirname(kommute.__file__)), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


class TestSubprocess:
    # end-to-end through the real interpreter

    def run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "kommute.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=300,
        )

    def test_count_exit_codes(self):
        ok = self.run(*"count --beta (1,2) --n 4 --k 3".split())
        assert ok.returncode == 0
        assert json.loads(ok.stdout)["count"] == "16"
        missing = self.run(*"count --beta (1,2,3)(4,5,6,7) --n 7 --k 5".split())
        assert missing.returncode == 2

    def test_jobs_changes_no_byte(self):
        argv = "count --beta (1,2,3,4,5,6) --n 6 --k 4 --method brute".split()
        one = self.run(*argv, "--jobs", "1")
        two = self.run(*argv, "--jobs", "3")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout

    def test_closed_pipe_exits_0(self):
        # a reader that stops after one line (`| head -1`) is not an error
        argv = ["enumerate", "--beta", "(1 2 3 4 5 6 7 8 9)", "--n", "9", "--k", "5"]
        with subprocess.Popen(
            [sys.executable, "-m", "kommute.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=300)
        assert first.startswith(b"(")
        assert (code, err) == (0, b"")

    def test_closed_pipe_ends_verify_at_the_next_verdict(self):
        # the flush after the second verdict meets the closed pipe, so the
        # run ends there instead of running all 13 checks
        argv = ["verify", "--n-max", "8"]
        with subprocess.Popen(
            [sys.executable, "-m", "kommute.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=300)
        assert first == b"PASS closed forms k<=4 vs brute force\n"
        assert (code, err) == (0, b"")

    def test_env_var_raises_bound(self):
        env = child_env(KOMMUTE_MAX_BRUTE_N="4")
        proc = subprocess.run(
            [sys.executable, "-m", "kommute.cli", *"count --beta (1,2) --n 5 --k 3 --method brute".split()],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "bound 4" in proc.stderr

    def test_request_without_witnesses_exits_0_at_once(self):
        # (1 2 3) has no cycle of 15 points, so no witness; the timeout
        # stands for a walk over the 14! cycles of 15 points
        proc = subprocess.run(
            [sys.executable, "-m", "kommute.cli", "enumerate", "--beta", "(1 2 3)", "--n", "20", "--k", "15"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=20,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    def test_size_caps_exit_1_at_once(self):
        # without the caps each request runs for many seconds or more; with
        # them it exits in about 0.15 s, and the timeout leaves room for a
        # loaded host
        for argv, message in [
            ("count --beta (1,2) --n 1000000 --k 3", f"degree cap {cli.MAX_DEGREE}"),
            ("enumerate --beta (1,2,3) --n 10001 --k 3", f"degree cap {cli.MAX_DEGREE}"),
            ("enumerate --beta (1,2,3) --n 12 --k 3", f"witness cap {cli.MAX_WITNESSES}"),
            ("enumerate --beta (1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,14) --n 14 --k 8 --mode fpf",
             f"witness cap {cli.MAX_WITNESSES}"),
        ]:
            proc = subprocess.run(
                [sys.executable, "-m", "kommute.cli", *argv.split()],
                capture_output=True,
                text=True,
                env=child_env(),
                timeout=5,
            )
            assert (proc.returncode, proc.stdout) == (1, ""), argv
            assert proc.stderr.startswith("kommute: error: ") and message in proc.stderr, argv

    def test_fpf_count_at_m_600(self):
        # 600 pairs: the deranged-matching count once recursed past the stack
        m = 600
        beta = "".join(f"({2 * i + 1},{2 * i + 2})" for i in range(m))
        proc = self.run("count", "--beta", beta, "--n", str(2 * m), "--k", str(2 * m))
        assert proc.returncode == 0, proc.stderr
        a, b = 1, 0  # A053871 at j - 2 and j - 1
        for j in range(2, m + 1):
            a, b = b, 2 * (j - 1) * (a + b)
        assert json.loads(proc.stdout)["count"] == str(2**m * math.factorial(m) * b)

    def test_counts_past_python_digit_limit(self):
        # both counts have more than the 4300 digits Python prints by default
        ncycle = "(" + " ".join(map(str, range(1, 1701))) + ")"
        fpf = "".join(f"({2 * i + 1},{2 * i + 2})" for i in range(1000))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for beta, n, want in [
                (ncycle, 1700, formulas.count_for_ncycle(1700, 1700)),
                (fpf, 2000, formulas.fpf_involution_count(2000, 1000)),
            ]:
                proc = self.run("count", "--beta", beta, "--n", str(n), "--k", str(n))
                assert proc.returncode == 0, proc.stderr
                assert len(str(want)) > 4300
                assert json.loads(proc.stdout)["count"] == str(want)
        finally:
            sys.set_int_max_str_digits(limit)


# runs cli.main in a fresh interpreter, then prints the modules loaded
# before the probe imports json for its own output
MODULES_PROBE = """
import sys
from kommute import cli
code = cli.main(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
sys.exit(code)
"""

POOL_MODULES = {"multiprocessing", "concurrent.futures.process"}
HEAVY_MODULES = {
    "kommute.oracle", "kommute.construct", "kommute.series", "kommute.verify", "fractions",
}


class TestColdStart:
    # a request imports only the modules its subcommand runs

    def loaded(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", MODULES_PROBE, *argv.split()],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    def test_closed_forms_load_no_oracle_enumerator_or_series(self):
        for argv in [
            "count --beta (1,2,3)(4,5) --n 5 --k 3",
            "table --kind fpf --n-max 6",
            "oeis --sequence A000757 --count 10",
        ]:
            loaded = self.loaded(argv)
            assert not loaded & (POOL_MODULES | HEAVY_MODULES), argv

    def test_no_serial_request_loads_the_worker_pool(self):
        for argv in [
            "count --beta (1,2,3)(4,5) --n 5 --k 3 --method brute --jobs 1",
            "enumerate --beta (1,2,3,4,5) --n 5 --k 3",
            "enumerate --beta (1,2,3,4,5) --n 5 --k 3 --json",
            "verify --n-max 4",
            "verify --n-max 5",
            "gf --kind tkn --n-max 5",
        ]:
            loaded = self.loaded(argv)
            assert "kommute.cli" in loaded
            assert not loaded & POOL_MODULES, argv

    def test_jobs_loads_no_pool_module(self):
        # --jobs is ignored and no class threshold is left: every histogram
        # runs in this process, also the (11,1,1) class of S_13, 2.8e8 elements
        for argv in [
            "count --beta (1,2)(3,4) --n 9 --k 4 --method brute --max-brute-n 9 --jobs 2",
            "count --beta (1,2,3,4,5,6,7,8,9,10,11) --n 13 --k 4 --method brute --max-brute-n 13 --jobs 2",
            "verify --n-max 5 --jobs 2",
        ]:
            loaded = self.loaded(argv)
            assert "kommute.oracle" in loaded
            assert not loaded & POOL_MODULES, argv

    def test_no_request_loads_dataclasses_json_or_csv(self):
        for argv in [
            "count --beta (1,2,3)(4,5) --n 5 --k 3",
            "count --beta (1,2,3)(4,5) --n 5 --k 3 --method brute",
            "table --kind tkn --n-max 5",
            "gf --kind fpf --n-max 4",
            "oeis --sequence A233440 --count 10",
            "verify --n-max 4",
            "enumerate --beta (1,2,3,4,5) --n 5 --k 3",
            "enumerate --beta (1,2,3,4,5) --n 5 --k 3 --json",
        ]:
            loaded = self.loaded(argv)
            assert not loaded & {"dataclasses", "inspect", "json", "csv", "argparse", "gettext"}, argv

    def test_a_usage_error_loads_argparse(self):
        # argparse parses and reports what the direct parser declines
        proc = subprocess.run(
            [sys.executable, "-c", MODULES_PROBE, "count", "--beta", "(1,2)"],
            capture_output=True,
            text=True,
            env=child_env(COLUMNS="80"),
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "usage: kommute count [-h] --beta BETA --n N --k K [--method {formula,brute}]\n"
            "                     [--jobs JOBS] [--max-brute-n MAX_BRUTE_N]\n"
            "kommute count: error: the following arguments are required: --n, --k\n"
        )
        assert "argparse" in json.loads(proc.stdout)

    def test_imports_load_no_dataclasses_json_or_series(self):
        probe = "import sys, kommute.cli, kommute.verify; print(*sorted(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(), timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "kommute.verify" in loaded
        assert not loaded & {
            "dataclasses", "inspect", "json", "csv", "kommute.series", "fractions", "argparse", "gettext"
        }
