#!/usr/bin/env python3
"""Tests of the benchmark itself: the output check, and a smoke run.

  python3 perfbench/test_run.py

The smoke test builds the harness (under .bench_build/) and runs every
workload at tiny scale with tracing, which takes seconds once built.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def record(digest="aa", size=10, sessions=5, **extra):
    return {"export_digest": digest, "export_bytes": size,
            "fingerprint": {"sessions": sessions}, "setup_s": 1.0, "run_s": 2.0,
            "analyze_s": 0.5, "peak_rss_mb": 9.0, **extra}


def checked(untraced, pin=None, traced=None, sharded=None, crashed=0):
    bench_run = run.Run("w", run.WORKLOADS["large_churn_hour"], 1, pin)
    bench_run.untraced, bench_run.traced, bench_run.sharded = untraced, traced, sharded
    bench_run.crashed = crashed
    return bench_run, bench_run.check()


class OutputCheck(unittest.TestCase):
    def test_matching_pin_passes(self):
        pin = {"export_digest": "aa", "export_bytes": 10, "fingerprint": {"sessions": 5}}
        bench_run, failed = checked([record(), record()], pin=pin)
        self.assertEqual(failed, 0)
        self.assertEqual(len(bench_run.good()), 2)

    def test_pin_mismatch_fails_every_campaign(self):
        pin = {"export_digest": "bb", "export_bytes": 10, "fingerprint": {"sessions": 5}}
        bench_run, failed = checked([record(), record()], pin=pin)
        self.assertEqual(failed, 2)
        self.assertEqual(bench_run.good(), [])

    def test_fingerprint_mismatch_fails_even_with_equal_bytes(self):
        _, failed = checked([record(), record(), record(sessions=6)])
        self.assertEqual(failed, 1)

    def test_unpinned_seed_takes_the_majority(self):
        bench_run, failed = checked([record(), record(digest="bb"), record()])
        self.assertEqual(failed, 1)
        self.assertEqual(len(bench_run.good()), 2)

    def test_unpinned_tie_fails_everything(self):
        _, failed = checked([record(), record(digest="bb")])
        self.assertEqual(failed, 2)

    def test_traced_campaign_must_match_untraced_bytes(self):
        traced = record(digest="bb", layers={})
        _, failed = checked([record(), record()], traced=traced)
        self.assertEqual(failed, 1)
        self.assertFalse(traced["ok"])

    def test_sharded_export_is_byte_compared(self):
        sharded = {"export_digest": "ab", "export_bytes": 10, "sharded_s": 1.0}
        bench_run, failed = checked([record(), record()], sharded=sharded)
        self.assertEqual(failed, 1)
        self.assertNotIn("runtime.shard_speedup", run.per_layer(bench_run))

    def test_crashes_count_as_failed(self):
        _, failed = checked([record()], crashed=2)
        self.assertEqual(failed, 2)


class Summary(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertNotIn("percentile", run.summarize([1.0] * 19))
        summary = run.summarize([float(i) for i in range(40)])
        self.assertEqual(summary["percentile"], (75, 29.0))  # 30..39 lie beyond
        self.assertEqual(summary["n"], 40)


class Smoke(unittest.TestCase):
    def test_smoke_run_checks_outputs_and_writes_sidecars(self):
        proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--smoke"],
                              capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3 * 4)
        for name, workload in run.SMOKE_WORKLOADS.items():
            for metric, unit in run.PER_LAYER:
                entry = result["metrics"][f"{name}/{metric}"]
                self.assertEqual(entry["unit"], unit)
            probe = lambda metric: result["metrics"][f"{name}/{metric}"]["value"]
            # Probes of absent sections read as not applicable, never 0.
            self.assertEqual(probe("net.dial_gate_ns") == run.NOT_APPLICABLE,
                             name != "storm_conditioned")
            self.assertEqual(probe("runtime.shard_speedup") == run.NOT_APPLICABLE,
                             not workload.sharded)
            self.assertGreater(probe("sim.hold_ns_per_event"), 0)
            sidecar = json.loads((run.OUT_DIR / "traces" /
                                  f"{name}-seed{run.DEFAULT_SEED}.json").read_text())
            spans = sidecar["spans"]
            for span in spans:
                self.assertLessEqual(span["start_ns"], span["end_ns"])
                if span["parent"] is not None:
                    parent = spans[span["parent"]]
                    self.assertLessEqual(parent["start_ns"], span["start_ns"])
                    self.assertGreaterEqual(parent["end_ns"], span["end_ns"])
            self.assertEqual(len(sidecar["hooks"]), 8)
        for table in ("end-to-end", "per-layer"):
            self.assertIn(table, proc.stdout)


if __name__ == "__main__":
    unittest.main()
