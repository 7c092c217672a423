#!/usr/bin/env python3
"""Self-test of tools/sim_diff.py on two canned perfbench result lines:

    python3 tools/test_sim_diff.py
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "sim_diff.py"
sys.path.insert(0, str(TOOL.parent))
import sim_diff  # noqa: E402


def result_line(**overrides):
    metrics = {
        "sim.events": {"value": 5200000, "unit": "count"},
        "ikc.offloads": {"value": 132352, "unit": "count"},
        "ikc.queue_p95_us": {"value": 12.5, "unit": "us"},
        "sim.host_ns_per_event": {"value": 410.0, "unit": "ns"},
        "sim.run_host_s": {"value": 2.1, "unit": "s"},
        "trace.overhead_s": {"value": 0.01, "unit": "s"},
    }
    for name, value in overrides.items():
        name = name.replace("__", ".")
        if value is None:
            del metrics[name]
        else:
            metrics[name] = {"value": value, "unit": metrics.get(name, {}).get("unit", "count")}
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})


def run_tool(before, after):
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for i, text in enumerate((before, after)):
            p = Path(d) / f"run{i}.out"
            p.write_text(text)
            paths.append(str(p))
        return subprocess.run([sys.executable, str(TOOL), *paths], capture_output=True,
                              text=True, timeout=60)


class SimDiffTest(unittest.TestCase):
    def test_host_metrics_are_ignored(self):
        before = "report line\n" + result_line() + "\n"
        after = "other report\n" + result_line(sim__host_ns_per_event=999.0,
                                               sim__run_host_s=9.9,
                                               trace__overhead_s=None) + "\n"
        p = run_tool(before, after)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertEqual(p.stdout, "")

    def test_simulated_difference_is_printed_and_fails(self):
        p = run_tool(result_line(), result_line(sim__events=5200001, ikc__offloads=None))
        self.assertEqual(p.returncode, 1)
        self.assertEqual(p.stdout.splitlines(), [
            "ikc.offloads: only in before (132352 count)",
            "sim.events: 5200000 count -> 5200001 count",
        ])

    def test_unit_change_is_a_difference(self):
        before = json.loads(result_line())["metrics"]
        after = json.loads(result_line())["metrics"]
        after["ikc.queue_p95_us"]["unit"] = "ms"
        self.assertEqual(len(sim_diff.differences(before, after)), 1)

    def test_missing_result_line_is_an_error(self):
        p = run_tool("no json here\n", result_line())
        self.assertEqual(p.returncode, 2)

    def test_the_seven_host_metrics(self):
        self.assertEqual(len(sim_diff.HOST_METRICS), 7)


if __name__ == "__main__":
    unittest.main()
