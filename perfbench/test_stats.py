"""Tests for the benchmark's statistics and its metric tables.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run
import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation_between_closest_ranks(self):
        xs = [40.0, 10.0, 30.0, 20.0]  # Sorted: 10 20 30 40.
        self.assertEqual(stats.percentile(xs, 0.0), 10.0)
        self.assertEqual(stats.percentile(xs, 1.0), 40.0)
        # Rank 0.5 * 3 = 1.5: halfway between 20 and 30.
        self.assertAlmostEqual(stats.percentile(xs, 0.5), 25.0)
        # Rank 0.9 * 3 = 2.7: 30 + 0.7 * 10.
        self.assertAlmostEqual(stats.percentile(xs, 0.9), 37.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)

    def test_ten_samples_beyond_rule(self):
        # p50 needs 20 samples: rank 9.5 leaves indices 10..19 beyond it.
        self.assertEqual(stats.beyond(20, 0.5), 10)
        self.assertTrue(stats.supported(20, 0.5))
        self.assertFalse(stats.supported(19, 0.5))
        # p90 needs 92: rank 81.9 leaves indices 82..91 beyond it.
        self.assertEqual(stats.beyond(92, 0.9), 10)
        self.assertTrue(stats.supported(92, 0.9))
        self.assertFalse(stats.supported(91, 0.9))
        self.assertFalse(stats.supported(0, 0.5))


def snapshot(**counts):
    base = {"ticks": 0, "preemptions": 0, "decode_tokens": 0,
            "decode_time_s": 0.0, "spills": 0, "restores": 0,
            "cow_copies": 0, "pages_lost": 0, "prefix_lookups": 0,
            "prefix_hits": 0, "prefix_adopted": 0, "npu_jobs": 0,
            "npu_jobs_recovered": 0, "smc_round_trips": 0}
    base.update(counts)
    return base


def unit(before, after, sent=12, prompt_tokens=100):
    return {"traced": 0, "wall_s": 1.0, "out_tokens": 10, "sent": sent,
            "prompt_tokens": prompt_tokens, "ttft_ms": [], "itl_ms": [],
            "before": before, "after": after}


class CounterDeltaTest(unittest.TestCase):
    def test_cumulative_counters_become_per_burst_deltas(self):
        # One TA serving three bursts: its prefix registry counts 13, 25,
        # 37 lookups cumulatively, i.e. 12 per burst.
        cumulative = [snapshot(prefix_lookups=n, prefix_hits=n - 1)
                      for n in (1, 13, 25, 37)]
        units = [unit(cumulative[i], cumulative[i + 1]) for i in range(3)]
        deltas = stats.first_cycle(units, 3)
        self.assertEqual([d["prefix_lookups"] for d in deltas], [12, 12, 12])
        self.assertEqual([d["prefix_hits"] for d in deltas], [12, 12, 12])

    def test_counter_going_backwards_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.delta(snapshot(spills=5), snapshot(spills=4))

    def test_counts_average_the_first_cycle_only(self):
        # Burst types alternate 10 and 20 ticks; a run that fits a third
        # burst still reports the first cycle's mean.
        units = [unit(snapshot(), snapshot(ticks=t)) for t in (10, 20, 10)]
        load = {"phase": 0, "before": snapshot(), "after": snapshot()}
        rec = {"units": units, "loads": [load],
               "meta": {"cycle_units": 2}, "kv_page_bytes": 8192}
        self.assertEqual(stats.unit_counts(rec)["serve.ticks"][0], 15)

    def test_spill_probe_counts_are_deltas(self):
        # The probe burst runs on a fresh TA, but its counters are still
        # differenced like any burst's.
        probe = [unit(snapshot(spills=3, restores=1),
                      snapshot(spills=13, restores=9))]
        m = stats.spill_counts({"kv_page_bytes": 131072}, probe)
        self.assertEqual(m["llm.kv_spills"][0], 10)
        self.assertEqual(m["llm.kv_restores"][0], 8)
        self.assertAlmostEqual(m["llm.kv_crypto_mb"][0], 18 * 131072 / 1e6)

    def test_short_run_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.first_cycle([unit(snapshot(), snapshot())], 2)


class MetricTableTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.UNITS)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
            {k: v[:2] for k, v in stats.PER_LAYER.items()})


if __name__ == "__main__":
    unittest.main()
