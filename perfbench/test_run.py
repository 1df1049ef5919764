#!/usr/bin/env python3
"""Self-tests of the benchmark's own code (run.py); no build needed.

    python3 perfbench/test_run.py
"""

import json
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def fake_raw(workload, traced, failed=0):
    """A raw result shaped like perfbench's output, with `failed` of
    the last queries marked as failed."""
    def phase(n, with_layers):
        queries = []
        for i in range(n):
            begin = 100.0 * i
            queries.append([10 + 20 * (i % 11), begin, begin + 50.0 + i % 7,
                            0 if i >= n - failed else 1, 1000 + i, 12.5])
        p = {"traced": with_layers, "queries": queries,
             "evicted_pages": 40, "resident_after_evict": 0}
        if with_layers:
            p["layers"] = {name: 1.0 for name in run.PER_LAYER}
        return p

    phases = [phase(22, False), phase(22, True)] if traced else [phase(110, False)]
    attempted = sum(len(p["queries"]) for p in phases)
    return {"workload": workload, "meta": {}, "setup_s": [7.0, 7.2, 7.1],
            "generate_s": [6.9, 7.0, 6.95], "preprocess_s": [0.1, 0.12, 0.11],
            "voxels": 256 * 256 * 240, "preprocess_bytes": 9_000_000,
            "peak_rss_mib": 100.0, "phases": phases, "attempted": attempted,
            "failed": failed, "problems": []}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_with_enough_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(samples, 0.5), 50)
        self.assertEqual(run.percentile(samples, 0.9), 90)  # 10 beyond

    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(run.NotEnoughSamples):
            run.percentile(list(range(99)), 0.9)  # rank 90 of 99: 9 beyond
        with self.assertRaises(run.NotEnoughSamples):
            run.percentile(list(range(19)), 0.5)
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)

    def test_failures_count_above_any_limit(self):
        fast = [1.0] * 100
        self.assertEqual(run.percentile(fast, 0.9, failures=5), 1.0)
        # 20 failures of 120 reach rank 108: the p90 is a miss.
        self.assertEqual(run.percentile(fast, 0.9, failures=20), math.inf)
        # Failures also count toward the samples beyond the rank.
        self.assertEqual(run.percentile([1.0] * 95, 0.9, failures=5), 1.0)

    def test_failed_queries_raise_the_reported_percentiles(self):
        clean = run.end_to_end(fake_raw("explore-cold", False))
        failing = run.end_to_end(fake_raw("explore-cold", False, failed=60))
        self.assertEqual(failing["query_p90_ms"], math.inf)
        self.assertGreater(failing["query_p50_ms"], clean["query_p50_ms"])


def sweep_queries(latency, repeats=10, good=lambda iso, k: True):
    """`repeats` back-to-back sweeps of the paper's isovalues, one client;
    `latency(iso, k)` is the k-th repeat's latency in ms."""
    queries, t = [], 0.0
    for k in range(repeats):
        for iso in run.ISOVALUES:
            ms = latency(iso, k)
            queries.append([iso, t, t + ms, 1 if good(iso, k) else 0, 100, ms / 2])
            t += ms + 3.0  # an untimed gap, such as an eviction
    return queries


class SweepPercentile(unittest.TestCase):
    def test_p90_is_the_second_slowest_isovalue(self):
        queries = sweep_queries(lambda iso, k: float(iso))
        self.assertEqual(run.sweep_percentile(queries, run.latency_ms, 0.9), 190.0)
        self.assertEqual(run.sweep_percentile(queries, run.first_surface_ms, 0.9), 95.0)

    def test_stalls_on_fewer_than_half_the_repeats_do_not_move_it(self):
        stalled = sweep_queries(lambda iso, k: iso * (10.0 if k < 4 else 1.0))
        self.assertEqual(run.sweep_percentile(stalled, run.latency_ms, 0.9), 190.0)

    def test_failures_count_above_any_limit(self):
        queries = sweep_queries(lambda iso, k: float(iso),
                                good=lambda iso, k: iso < 190 or k < 5)
        self.assertEqual(run.sweep_percentile(queries, run.latency_ms, 0.9), math.inf)

    def test_refuses_fewer_than_ten_repeats(self):
        with self.assertRaises(run.NotEnoughSamples):
            run.sweep_percentile(sweep_queries(lambda iso, k: 1.0, repeats=9),
                                 run.latency_ms, 0.9)


class WindowRates(unittest.TestCase):
    def test_idle_gaps_are_not_busy_time(self):
        qps, tri = run.window_rates(sweep_queries(lambda iso, k: 50.0), 10)
        self.assertAlmostEqual(qps, 20.0)
        self.assertAlmostEqual(tri, 2000.0)

    def test_a_slow_spell_in_few_windows_does_not_move_it(self):
        queries = sweep_queries(lambda iso, k: 500.0 if k == 0 and iso < 50 else 50.0)
        self.assertAlmostEqual(run.window_rates(queries, 10)[0], 20.0)

    def test_concurrent_clients_add_up(self):
        queries = [q for _ in range(4) for q in sweep_queries(lambda iso, k: 50.0)]
        self.assertAlmostEqual(run.window_rates(queries, 10)[0], 80.0)

    def test_failed_queries_deliver_nothing(self):
        queries = sweep_queries(lambda iso, k: 50.0, good=lambda iso, k: iso != 10)
        self.assertAlmostEqual(run.window_rates(queries, 10)[0], 20.0 * 10 / 11)


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(run.make_inputs(7, 30), run.make_inputs(7, 30))

    def test_different_seed_different_inputs(self):
        seed_a, seq_a = run.make_inputs(7, 30)
        seed_b, seq_b = run.make_inputs(8, 30)
        self.assertNotEqual(seed_a, seed_b)
        self.assertNotEqual(seq_a, seq_b)

    def test_sequence_is_whole_sweeps_of_the_paper_isovalues(self):
        _, seq = run.make_inputs(3, 12)
        n = len(run.ISOVALUES)
        self.assertEqual(len(seq), 12 * n)
        for i in range(0, len(seq), n):
            self.assertEqual(sorted(seq[i:i + n]), list(run.ISOVALUES))

    def test_run_length_never_exhausts_the_sequence(self):
        # 200 queries a second is above every workload's measured rate.
        sweeps = run.sweeps_for(10)
        self.assertGreaterEqual(sweeps, 200 * 10 / len(run.ISOVALUES) + 20)


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        path = Path(run.__file__).resolve().parent.parent / "BENCHMARK.json"
        cls.spec = json.loads(path.read_text())

    def test_tables_match_benchmark_json(self):
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual(declared, table, key)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_every_metric_present_with_its_unit(self):
        for workload in run.WORKLOADS:
            for traced, key in ((False, "end_to_end"), (True, "per_layer")):
                out = run.result(fake_raw(workload, traced), traced)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                want = {m["name"]: m["unit"] for m in self.spec[key]}
                self.assertEqual(got, want, (workload, key))
                for m in out["metrics"].values():
                    self.assertIsInstance(m["value"], (int, float))

    def test_missing_layer_metric_is_an_error(self):
        raw = fake_raw("serve-warm", True)
        del raw["phases"][1]["layers"]["io.read_ops"]
        with self.assertRaises(KeyError):
            run.result(raw, True)

    def test_flat_first_surface_is_the_query_latency(self):
        flat = run.end_to_end(fake_raw("serve-warm", False))
        self.assertEqual(flat["first_surface_p50_ms"], flat["query_p50_ms"])
        progressive = run.end_to_end(fake_raw("preview-progressive", False))
        self.assertEqual(progressive["first_surface_p50_ms"], 12.5)

    def test_failed_run_is_not_correct(self):
        out = run.result(fake_raw("explore-cold", True, failed=1), True)
        self.assertFalse(out["correct"])
        self.assertGreater(out["metrics"]["failed_fraction"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
