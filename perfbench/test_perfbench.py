#!/usr/bin/env python3
"""Self-tests of the benchmark's own code (no simulator build needed).

    python3 perfbench/test_perfbench.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis  # noqa: E402


def span(span_id, parent, name, thread, start, end, count=1, covered=None):
    return {"id": span_id, "parent": parent, "name": name, "thread": thread, "run": 0,
            "start_ns": start, "end_ns": end, "count": count,
            "covered_ns": end - start if covered is None else covered}


def bucket_of(ns):
    """perfbench/driver/trace.cc's BucketOf, for the inverse check."""
    if ns < 16:
        return ns
    exponent = ns.bit_length() - 1
    return (exponent - 3) * 16 + ((ns >> (exponent - 4)) & 15)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [name for name, _ in analysis.END_TO_END + analysis.PER_LAYER]
        for name in names:
            self.assertRegex(name, analysis.METRIC_NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_emitted_metrics(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        self.assertEqual([(m["name"], m["unit"]) for m in benchmark["end_to_end"]],
                         analysis.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in benchmark["per_layer"]],
                         analysis.PER_LAYER)
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
            self.assertRegex(metric["name"], analysis.METRIC_NAME)

    def test_bad_names_are_rejected(self):
        for bad in ("wall s", "", "x/y", "p99%"):
            self.assertIsNone(analysis.METRIC_NAME.match(bad))


class DigestCheck(unittest.TestCase):
    def test_perturbed_missing_and_extra_exports_trip_the_check(self):
        with tempfile.TemporaryDirectory() as directory:
            for name, text in (("a_sweep.csv", "x,1\n"), ("a_sweep.json", "{\"v\": 1}\n")):
                with open(os.path.join(directory, name), "w") as handle:
                    handle.write(text)
            recorded = analysis.digest_dir(directory)
            self.assertEqual(analysis.compare_maps(analysis.digest_dir(directory), recorded,
                                                   "exports"), [])
            with open(os.path.join(directory, "a_sweep.json"), "w") as handle:
                handle.write("{\"v\": 2}\n")
            errors = analysis.compare_maps(analysis.digest_dir(directory), recorded, "exports")
            self.assertEqual(len(errors), 1)
            self.assertIn("a_sweep.json", errors[0])
            os.remove(os.path.join(directory, "a_sweep.csv"))
            with open(os.path.join(directory, "b_sweep.csv"), "w") as handle:
                handle.write("y\n")
            errors = analysis.compare_maps(analysis.digest_dir(directory), recorded, "exports")
            self.assertEqual(len(errors), 3)

    def test_only_behavioural_counters_are_checked(self):
        result = {"sweeps": [{"name": "s", "counters": {
            "sim.events_run": 5, "sim.events_overflow": 2, "quic.pool.packet_hit": 9,
            "netem.up.drop_pattern": 1, "recovery.pto_fired": 3,
            "recovery.loss_detection_runs": 4, "sweep.execute_micros": 77}}]}
        self.assertEqual(analysis.checked_counters(result), {"s": {
            "sim.events_run": 5, "netem.up.drop_pattern": 1, "recovery.pto_fired": 3}})
        moved = analysis.compare_counters({"s": {"sim.events_run": 6}}, {"s": {"sim.events_run": 5}})
        self.assertEqual(len(moved), 1)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            span(1, 0, "process", 0, 0, 1000),
            span(2, 1, "sweep", 0, 100, 600),
            # Run blocks of two lanes under the sweep: covered time, not extent.
            span(3, 2, "runner", 0, 110, 590, count=40, covered=400),
            span(4, 2, "runner", 1, 120, 600, count=30, covered=300),
            span(5, 2, "observer", 0, 300, 310),
            span(6, 1, "export", 0, 650, 700),
            span(7, 6, "encode", 0, 660, 690),
        ]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[1], 1000 - 500 - 50)
        # Two lanes ran the sweep's children: 2 x 500 minus 400 + 300 + 10.
        self.assertEqual(selfs[2], 2 * 500 - 710)
        self.assertEqual(selfs[3], 400)
        self.assertEqual(selfs[4], 300)
        self.assertEqual(selfs[5], 10)
        self.assertEqual(selfs[6], 50 - 30)
        self.assertEqual(selfs[7], 30)
        table = analysis.self_time_by_name(spans)
        self.assertEqual(table["runner"], (700, 700, 70))

    def test_self_times_add_up_to_the_lane_time(self):
        spans = [span(1, 0, "root", 0, 0, 100), span(2, 1, "a", 0, 10, 30),
                 span(3, 1, "b", 1, 20, 90), span(4, 3, "c", 1, 25, 35)]
        selfs = analysis.self_times(spans)
        self.assertEqual(sum(selfs.values()), 2 * 100)


class Statistics(unittest.TestCase):
    def test_histogram_buckets_invert_the_driver_rule(self):
        for ns in (0, 1, 15, 16, 17, 31, 32, 1000, 22016, 123456789):
            low, high = analysis.histogram_bucket_bounds(bucket_of(ns))
            self.assertLessEqual(low, ns)
            self.assertLess(ns, high)

    def test_percentiles(self):
        self.assertEqual(analysis.percentile([5, 1, 3, 2, 4], 0.5), 3)
        self.assertEqual(analysis.percentile(list(range(1, 101)), 0.99), 99)
        buckets = [[bucket_of(100), 98], [bucket_of(5000), 2]]
        self.assertAlmostEqual(analysis.histogram_percentile(buckets, 0.5), 102.0)  # [100, 104)
        self.assertGreater(analysis.histogram_percentile(buckets, 0.99), 4800)


class LayerMetrics(unittest.TestCase):
    def test_keyed_and_sweep_metrics(self):
        result = {"threads": 2, "t_first_run_ns": 0, "t_end_ns": 2_000_000_000,
                  "partial_bytes": 0, "unit_wall_s": [],
                  "sweeps": [{"name": "caching", "executed_runs": 6, "counters": {}}]}
        trace = {
            "names": ["sweep", "runner", "observer"],
            "span_fields": ["id", "parent", "name", "thread", "run", "start_ns", "end_ns",
                            "count", "covered_ns"],
            "spans": [[1, 0, 0, 0, 1, 0, 1_000_000_000, 1, 1_000_000_000],
                      [2, 1, 1, 0, 1, 0, 990_000_000, 3, 900_000_000],
                      [3, 1, 1, 1, 1, 0, 995_000_000, 3, 950_000_000]],
            "run_histogram": [],
            "keys": [{"key": "2#cache_capacity=2", "calls": 3, "max_ns": 300_000_000,
                      "sum_ns": 550_000_000},
                     {"key": "4#cache_capacity=4", "calls": 3, "max_ns": 500_000_000,
                      "sum_ns": 1_300_000_000}],
        }
        metrics = analysis.layer_metrics(result, trace, engine=False, cpu_s=2.0, wall_s=1.0)
        self.assertEqual({name for name, _ in analysis.PER_LAYER} - set(metrics),
                         {"trace.overhead_share"})
        self.assertEqual(metrics["keyed.keys"], 2)
        self.assertAlmostEqual(metrics["keyed.compute_s"], 0.8)
        self.assertAlmostEqual(metrics["keyed.wait_s"], 1.05)
        self.assertAlmostEqual(metrics["scan.cluster_s.cap4.max"], 0.5)
        self.assertEqual(metrics["scan.cluster_s.cap65536.p50"], 0.0)
        self.assertAlmostEqual(metrics["sweep.runner_ns_per_run"], 1.85e9 / 6)
        self.assertAlmostEqual(metrics["sweep.self_ns_per_run"], (2e9 - 1.85e9) / 6)
        self.assertAlmostEqual(metrics["sweep.busy_share"], 1.0)
        self.assertEqual(metrics["experiment.run_us.p50"], 0.0)


if __name__ == "__main__":
    unittest.main()
