#!/usr/bin/env python3
"""Check that two perfbench runs report the same simulated results.

    python3 tools/sim_diff.py BEFORE.out AFTER.out

Each file holds the stdout of one `perfbench --trace 1` run (directly or
through `perfbench/run.py`) of the same workload and seed; its result line
is the last line that parses as a JSON object with "metrics". Every metric
must match exactly, value and unit, except the host-measured ones in
HOST_METRICS. Each difference is printed, one per line. Exit status: 0 when
none is found, 1 when any is, 2 when an input has no result line.
"""
import json
import sys

# Measured on the host: they vary run to run and are not simulated results.
HOST_METRICS = frozenset({
    "sim.host_ns_per_event", "sim.run_host_s", "sim.frame_host_allocs",
    "setup.cluster_s", "setup.world_s", "teardown_s", "trace.overhead_s",
})


def result_metrics(text):
    """The "metrics" object of the last JSON result line in `text`, or None."""
    for line in reversed(text.splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("metrics"), dict):
            return obj["metrics"]
    return None


def shown(metric):
    """`{"value": 3, "unit": "us"}` as "3 us"."""
    if isinstance(metric, dict):
        return f"{metric.get('value')} {metric.get('unit')}"
    return repr(metric)


def differences(before, after):
    """Lines naming each non-host metric that is missing on one side or differs."""
    out = []
    for name in sorted((set(before) | set(after)) - HOST_METRICS):
        if name not in after:
            out.append(f"{name}: only in before ({shown(before[name])})")
        elif name not in before:
            out.append(f"{name}: only in after ({shown(after[name])})")
        elif before[name] != after[name]:
            out.append(f"{name}: {shown(before[name])} -> {shown(after[name])}")
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metrics = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as f:
            m = result_metrics(f.read())
        if m is None:
            print(f"sim_diff: no perfbench result line in {path}", file=sys.stderr)
            return 2
        metrics.append(m)
    diffs = differences(*metrics)
    for line in diffs:
        print(line)
    compared = len(set(metrics[0]) - HOST_METRICS)
    if diffs:
        print(f"sim_diff: {len(diffs)} simulated metric(s) differ", file=sys.stderr)
        return 1
    print(f"sim_diff: {compared} simulated metrics identical", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
