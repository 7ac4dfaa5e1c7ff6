"""Checks of how run.py turns iterations into a run's metrics."""

import unittest

import run


def iteration(slices, setup=0.05, oracle=0.01):
    return {
        "e2e": {
            "setup_s": setup,
            "oracle_s": oracle,
            "slice_ms": slices,
            "peak_heap_mb": 30.0,
            "alloc_mb": 700.0,
            "join_ok_frac": 0.75,
        }
    }


class Percentile(unittest.TestCase):
    def test_supported(self):
        self.assertEqual(run.percentile(0.95, list(range(200))), 189)
        self.assertEqual(run.percentile(0.5, list(range(200))), 99)

    def test_unsupported(self):
        with self.assertRaisesRegex(ValueError, "p95 of 199 samples has 9 beyond it"):
            run.percentile(0.95, list(range(199)))


class Fastest(unittest.TestCase):
    def test_each_slice_at_its_fastest(self):
        fast = [1.0] * 240
        slow_first = [2.0] * 120 + [1.0] * 120
        slow_last = [1.0] * 120 + [2.0] * 120
        m = run.fastest([iteration(slow_first, setup=0.09), iteration(slow_last)], deliveries=480)
        self.assertAlmostEqual(m["run_s"], 0.24)
        self.assertAlmostEqual(m["setup_s"], 0.05)
        self.assertAlmostEqual(m["wall_s"], 0.30)
        self.assertAlmostEqual(m["msgs_per_s"], 2000.0)
        self.assertEqual(m["vsec_ms_p95"], 1.0)
        self.assertEqual(run.fastest([iteration(fast)], deliveries=480), m)


if __name__ == "__main__":
    unittest.main()
