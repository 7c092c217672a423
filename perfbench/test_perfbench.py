#!/usr/bin/env python3
"""The benchmark's own tests (builds perfbench first, then takes a few seconds):

    python3 perfbench/test_perfbench.py

- Schema: every metric BENCHMARK.json names is emitted with its unit, and
  nothing else: end-to-end metrics by untraced runs, per-layer metrics by
  traced runs, on every workload.
- Determinism smoke test: every workload at a tiny shape (2 nodes x 4 ranks)
  passes its output check, and two runs with one seed report identical
  simulated results.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = ["--nodes", "2", "--rpn", "4"]
# Host-time metrics; everything else a run reports is simulated or counted
# and must repeat exactly for one seed.
HOST_METRICS = {"wall_s", "events_per_s", "setup_s", "peak_rss_mb", "sim.host_ns_per_event",
                "sim.run_host_s", "sim.frame_host_allocs", "setup.cluster_s",
                "setup.world_s", "teardown_s", "trace.overhead_s"}


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    p = subprocess.run([str(run.build_dir() / "perfbench"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "0", "--trace", str(trace), *TINY],
                       capture_output=True, text=True, timeout=120)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1]), p.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = spec()
        cls.runs = {(w["name"], seed, trace): bench(w["name"], seed, trace)
                    for w in cls.spec["workloads"] for seed in (1, 2) for trace in (0, 1)}

    def test_schema(self):
        for (name, seed, trace), (rc, res, out) in self.runs.items():
            with self.subTest(workload=name, seed=seed, trace=trace):
                self.assertEqual(rc, 0, out)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                want = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual({m["name"]: m["unit"] for m in want},
                                 {k: v["unit"] for k, v in res["metrics"].items()})
                for m in want:
                    self.assertIsInstance(res["metrics"][m["name"]]["value"], (int, float))
                    if not trace:
                        self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_same_seed_same_simulated_results(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                _, first, _ = self.runs[(w["name"], 1, trace)]
                _, again, _ = bench(w["name"], 1, trace)
                with self.subTest(workload=w["name"], trace=trace):
                    for k, v in first["metrics"].items():
                        if k not in HOST_METRICS:
                            self.assertEqual(v, again["metrics"][k], k)

    def test_unknown_workload_fails(self):
        p = subprocess.run([str(run.build_dir() / "perfbench"), "--workload", "nope",
                            "--seed", "1", "--seconds", "0", "--trace", "0"],
                           capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
