"""
Tests of the benchmark itself: seeded inputs, statistics, span self time,
the answer check and the reference table.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import random
import sys
import tempfile
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from kommute import formulas  # noqa: E402
from kommute.perm import CycleType  # noqa: E402


def argvs(workload, seed, count=40):
    return [r.argv for r in workloads.first_requests(workload, seed, count)]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_argv_and_other_seed_other_argv(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(argvs(workload, 5), argvs(workload, 5))
                self.assertNotEqual(argvs(workload, 5), argvs(workload, 6))

    def test_decks_cover_the_workload_mix(self):
        stream = workloads.first_requests("enumerate_stream", 1, 18)
        self.assertEqual(sum("--json" in r.argv for r in stream), 5)
        self.assertLessEqual(max(r.expect for r in stream), 310_000)

    def test_random_conjugate_has_the_type(self):
        rng = random.Random(3)
        for parts in ref.partitions(7):
            text, images = workloads.random_conjugate(parts, rng)
            self.assertEqual(workloads.parse_cycles(text, 7), images)
            chunks = text.replace(")", "").split("(")[1:]
            cycle_lengths = sorted((len(c.split()) for c in chunks if c), reverse=True)
            self.assertEqual(cycle_lengths, [p for p in parts if p > 1])


class Statistics(unittest.TestCase):
    def test_tail_percentile_leaves_ten_samples_above(self):
        self.assertIsNone(run.tail_percentile(10))
        self.assertEqual(run.tail_percentile(11), 9)
        self.assertEqual(run.tail_percentile(29), 65)
        self.assertEqual(run.tail_percentile(110), 90)
        for n in range(11, 400):
            q = run.tail_percentile(n)
            values = list(range(n))
            above = n - 1 - run.percentile(values, q)
            self.assertGreaterEqual(above, 10, n)
            self.assertLess(n - 1 - run.percentile(values, q + 1), 10, n)

    def test_each_workload_has_a_fixed_tail_at_or_above_the_median(self):
        self.assertEqual(set(run.MIN_DECKS), set(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            samples = run.tail_samples(workload)
            q = run.tail_percentile(samples)
            self.assertGreaterEqual(q, 50, workload)
            # a run measures at least `samples` requests, so at least ten
            # lie above the percentile whatever the run's length
            for n in (samples, samples + 1, 3 * samples):
                self.assertGreaterEqual(n - 1 - run.percentile(range(n), q), 10)

    def test_self_time_on_a_synthetic_tree(self):
        #   0 main (10s) -> 1 count (4s) -> 2 leaf (1s)
        #                -> 3 generator (3s busy, 0.5s of it in tallied calls)
        spans = [
            ["cli.main", 0.0, 10.0, 10.0, -1, 0, None, None, 0.0],
            ["formulas.count", 1.0, 5.0, 4.0, 0, 0, None, None, 0.0],
            ["formulas.successor_free_cycles", 2.0, 3.0, 1.0, 1, 0, None, None, 0.0],
            ["construct.fpf_pairs", 5.0, 9.5, 3.0, 0, 7, 5.5, None, 0.5],
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 3.0, 1.0, 2.5])

    def test_recorder_nests_calls_and_generators(self):
        rec = tracer.Recorder()

        def leaf():
            return 1

        def gen():
            for _ in range(3):
                yield wrapped_leaf()

        wrapped_leaf = rec.wrap_call("x.leaf", leaf)
        wrapped_gen = rec.wrap_generator("x.gen", gen)
        outer = rec.wrap_call("x.outer", lambda: sum(wrapped_gen()) + wrapped_leaf())
        self.assertEqual(outer(), 4)
        names = [s[tracer.NAME] for s in rec.spans]
        self.assertEqual(names, ["x.outer", "x.gen", "x.leaf", "x.leaf", "x.leaf", "x.leaf"])
        parents = [s[tracer.PARENT] for s in rec.spans]
        self.assertEqual(parents, [-1, 0, 1, 1, 1, 0])
        self.assertEqual(rec.spans[1][tracer.ITEMS], 3)
        selfs = tracer.self_times(rec.spans)
        self.assertTrue(all(t >= 0 for t in selfs))
        self.assertAlmostEqual(sum(selfs), rec.spans[0][tracer.BUSY])
        self._check_dump(rec)

    def test_tallied_calls_leave_the_span_tree_and_keep_their_time(self):
        rec = tracer.Recorder()
        inner = rec.wrap_tallied("x.inner", lambda: time.sleep(0.002))

        def middle():
            inner()
            time.sleep(0.002)

        def stream():
            for _ in range(3):
                time.sleep(0.001)
                yield 1

        middle = rec.wrap_tallied("x.middle", middle)
        stream = rec.wrap_tallied("x.stream", stream)
        outer = rec.wrap_call("x.outer", lambda: (middle(), inner(), sum(stream())))
        outer()
        self.assertEqual([s[tracer.NAME] for s in rec.spans], ["x.outer"])
        tallies = rec.tallies
        self.assertEqual([tallies[n][tracer.CALLS] for n in ("x.inner", "x.middle", "x.stream")],
                         [2, 1, 1])
        self.assertEqual(tallies["x.stream"][tracer.TALLY_ITEMS], 3)
        middle_t = tallies["x.middle"]
        self.assertGreater(middle_t[tracer.TALLY_BUSY] - middle_t[tracer.TALLY_SELF], 0.0015)
        self.assertGreater(middle_t[tracer.TALLY_SELF], 0.0015)
        # the span's self time and the tallied self times add up to its busy time
        own = tracer.self_times(rec.spans)[0]
        self.assertAlmostEqual(own + sum(t[tracer.TALLY_SELF] for t in tallies.values()),
                               rec.spans[0][tracer.BUSY])
        self._check_dump(rec)

    def test_install_skips_boundaries_the_program_lacks(self):
        class Series:
            def __mul__(self, other):
                return self

        modules = {layer: types.SimpleNamespace() for layer in tracer.BOUNDARIES}
        modules["series"].BivariateSeries = Series
        modules["oracle"].distribution = lambda beta: beta
        modules["cli"].RUNNERS = {"count": modules["oracle"].distribution}
        rec = tracer.Recorder()
        rec.install(modules)
        modules["cli"].RUNNERS["count"](types.SimpleNamespace(
            degree=3, cycle_type=lambda: types.SimpleNamespace(parts=lambda: (3,))))
        self.assertEqual([s[tracer.NAME] for s in rec.spans], ["oracle.distribution"])
        self.assertEqual(rec.spans[0][tracer.TAG], [3, [3]])

    def _check_dump(self, rec):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.json"
            rec.dump(path, 7, {"main0": 0.0})
            end = Path(tmp) / "spans.json.end"
            end.write_text("1.5")
            dump, dumped = run.read_dump(path, end, 7)
            self.assertEqual(dump["spans"], rec.spans)
            self.assertEqual(dump["tallies"], rec.tallies)
            self.assertEqual(dumped, 1.5)
            # a dump left by another request is not taken for this one
            self.assertIsNone(run.read_dump(path, end, 8))
            end.unlink()
            self.assertIsNone(run.read_dump(path, end, 7))


class AnswerCheck(unittest.TestCase):
    def setUp(self):
        self.table = ref.load_table()
        self.rng = random.Random(0)
        self.req = workloads._count_request((4, 3, 2), 5, random.Random(2),
                                            ("--method", "brute", "--max-brute-n", "9"))
        want = self.table[ref.type_key(self.req.parts)][self.req.k]
        self.record = {"n": 9, "k": self.req.k, "beta": self.req.argv[2], "count": str(want),
                       "method": "brute", "provenance": "exhaustive"}

    def check(self, rc, record):
        return workloads.check(self.req, rc, json.dumps(record).encode() + b"\n",
                               self.table, self.rng)

    def test_right_answer_passes(self):
        self.assertIsNone(self.check(0, self.record))

    def test_wrong_answer_and_wrong_exit_code_are_counted_failed(self):
        fails = run.Failures()
        wrong = dict(self.record, count=str(int(self.record["count"]) + 1))
        resp = run.Response(1.0, 1.0, 1, 1.0, 0, b"", 0.0, 1.0)
        fails.record(self.req, resp, self.check(0, wrong), None)
        fails.record(self.req, resp, self.check(1, self.record), None)
        fails.record(self.req, resp, self.check(0, self.record), None)
        self.assertEqual((fails.attempted, len(fails.reasons)), (3, 2))

    def test_verify_control_must_fail_exactly_two_checks(self):
        req = workloads.Request([], "verify", info={"n_max": 7, "corrupt": True})
        lines = [f"PASS {name}" for name in workloads.VERIFY_CHECKS]
        self.assertIsNotNone(workloads.check(req, 3, "\n".join(lines).encode(), {}, self.rng))
        lines = [f"FAIL {name} (2 case(s))" if name in workloads.CORRUPT_F_FAILS
                 else f"PASS {name}" for name in workloads.VERIFY_CHECKS]
        lines.append("11/13 checks passed (n_max=7)")
        out = "\n".join(lines).encode()
        self.assertIsNone(workloads.check(req, 3, out, {}, self.rng))
        self.assertIsNotNone(workloads.check(req, 0, out, {}, self.rng))

    def test_corrupted_reference_fails_a_real_cli_answer(self):
        req = workloads._count_request((3, 2, 1), 3, random.Random(1))
        key = ref.type_key(req.parts)
        corrupted = dict(self.table, **{key: [c + 1 for c in self.table[key]]})
        with tempfile.TemporaryDirectory() as tmp:
            resp = run.Client(Path(tmp)).cli(req.argv)
        self.assertEqual(resp.rc, 0)
        self.assertIsNone(workloads.check(req, resp.rc, resp.stdout, self.table, self.rng))
        self.assertIsNotNone(workloads.check(req, resp.rc, resp.stdout, corrupted, self.rng))


class ReferenceTable(unittest.TestCase):
    def test_regenerates_at_small_n(self):
        table = ref.load_table()
        small = ref.build_table(7)
        self.assertEqual(small, {k: v for k, v in table.items() if sum(map(int, k.split("."))) <= 7})

    def test_table_against_closed_forms_and_invariants(self):
        table = ref.load_table()
        self.assertEqual(len(table), sum(1 for n in range(1, 10) for _ in ref.partitions(n)))
        for n in range(1, 10):
            for parts in ref.partitions(n):
                hist = table[ref.type_key(parts)]
                t = CycleType.from_parts(parts)
                self.assertEqual(sum(hist), math.factorial(n))
                self.assertTrue(all(c % t.centralizer_order() == 0 for c in hist))
                for k in range(min(n, 4) + 1):
                    self.assertEqual(formulas.count(t, k).value, hist[k], (parts, k))
                if ref.special_kind(parts):
                    for k in range(n + 1):
                        self.assertEqual(ref.special_count(parts, k), hist[k], (parts, k))
                        self.assertEqual(formulas.count(t, k).value, hist[k], (parts, k))

    def test_recurrences_match_their_definitions(self):
        inclusion_exclusion = [
            sum((-1) ** i * math.comb(k, i) * math.factorial(k - i - 1) for i in range(k))
            + (-1) ** k for k in range(60)]
        self.assertEqual(ref.successor_free_sequence(60), inclusion_exclusion)
        self.assertEqual(ref.deranged_matchings_sequence(6), [1, 0, 2, 8, 60, 544])
        for parts, k in workloads.SINGLE_POOL:
            t = CycleType.from_parts(parts)
            self.assertEqual(ref.single_cycle_count(parts, k), formulas.single_cycle_count(t, k))


if __name__ == "__main__":
    unittest.main()
