#!/usr/bin/env python3
"""Run a perfbench workload in alternating parent/change pairs:

    python3 tools/perf_pairs.py --base <rev> --workload <name> \\
        [--pairs N] [--seconds S] [--seed S0] [--sim-diff]

The parent side is <rev> exported with `git archive` into a temporary
directory (the working tree, index and refs are never touched); the change
side is this checkout as it stands. Pair i runs both sides on seed S0+i
through each side's own perfbench/run.py, the parent first on even pairs
and the change first on odd ones. Each side builds its own perfbench on its
first run.

Prints, per pair, the parent/change values of the end-to-end metrics
(END_TO_END), then their medians and the change/parent ratio of the
medians, then the numbers the benchmark's acceptance rule reads: the
parent's quartiles (Q1 .. Q3) and in how many pairs the change won, that
is, beat the parent in the direction BENCHMARK.json's `better` gives for
the metric. With --sim-diff it also runs one `--trace 1` pair on seed S0 and
compares the two through tools/sim_diff.py. Exit status: 1 when any run is
not `correct`, reports failures or prints no result line, or when sim_diff
finds a difference; 2 when <rev> cannot be exported; 0 otherwise.
"""
import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "events_per_s", "setup_s", "peak_rss_mb")


def result_of(text):
    """The last JSON result line ({"correct", "failed", "metrics", ...}) in `text`, or None."""
    for line in reversed(text.splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("metrics"), dict):
            return obj
    return None


def problems(result):
    """Why a run's result does not count: missing, not correct, or with failures."""
    if result is None:
        return ["no result line"]
    out = []
    if result.get("correct") is not True:
        out.append("not correct")
    if result.get("failed", 0):
        out.append(f"{result['failed']} failed")
    return out


def value(result, metric):
    m = (result or {}).get("metrics", {}).get(metric)
    return m.get("value") if isinstance(m, dict) else None


def shown(v):
    return "-" if v is None else f"{v:.4g}"


def directions():
    """{metric: "lower" or "higher"}: which way each end-to-end metric improves."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values):
    """(Q1, Q3) of `values`, interpolated inclusively; (None, None) when empty."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (None, None)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(pairs, metric, better):
    """(pairs the change won, pairs where both sides reported `metric`)."""
    both = [(value(p, metric), value(c, metric)) for _, _, p, c in pairs]
    both = [(p, c) for p, c in both if p is not None and c is not None]
    won = sum(1 for p, c in both if (c < p if better == "lower" else c > p))
    return won, len(both)


def summary(pairs):
    """Table lines for `pairs`, a list of (seed, first, parent, change) with
    `first` naming the side that ran first and parent/change result objects."""
    better = directions()
    width = 21
    head = f"{'pair':>4} {'seed':>6} {'first':<7}" + "".join(
        f" {m + ' p/c':>{width}}" for m in END_TO_END)
    lines = [head]
    for i, (seed, first, parent, change) in enumerate(pairs, 1):
        cells = "".join(
            f" {shown(value(parent, m)) + ' / ' + shown(value(change, m)):>{width}}"
            for m in END_TO_END)
        lines.append(f"{i:>4} {seed:>6} {first:<7}{cells}")
    medians, ratios, spreads, won = "", "", "", ""
    for m in END_TO_END:
        p = [v for v in (value(r, m) for _, _, r, _ in pairs) if v is not None]
        c = [v for v in (value(r, m) for _, _, _, r in pairs) if v is not None]
        pm = statistics.median(p) if p else None
        cm = statistics.median(c) if c else None
        medians += f" {shown(pm) + ' / ' + shown(cm):>{width}}"
        ratio = cm / pm if pm and cm is not None else None
        ratios += f" {shown(ratio):>{width}}"
        q1, q3 = quartiles(p)
        spreads += f" {shown(q1) + ' .. ' + shown(q3):>{width}}"
        n_won, n = wins(pairs, m, better[m])
        won += f" {f'{n_won}/{n} ' + better[m]:>{width}}"
    lines.append(f"{'median':<19}{medians}")
    lines.append(f"{'change/parent':<19}{ratios}")
    lines.append(f"{'parent Q1 .. Q3':<19}{spreads}")
    lines.append(f"{'change won':<19}{won}")
    return lines


def export(rev, dest):
    """Extract `git archive <rev>` into `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        if hasattr(tarfile, "data_filter"):
            t.extractall(dest, filter="data")
        else:
            t.extractall(dest)


def run_side(root, workload, seed, seconds, trace):
    """One perfbench/run.py run in checkout `root`; returns (stdout, stderr)."""
    # Each checkout builds into its own tree: a CARGO_TARGET_DIR set to an
    # absolute path would make both sides share one.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run([sys.executable, str(Path(root) / "perfbench" / "run.py"),
                        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       cwd=root, env=env, capture_output=True, text=True)
    return p.stdout, p.stderr


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent revision (any git rev)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sim-diff", action="store_true",
                    help="also compare one --trace 1 pair with tools/sim_diff.py")
    args = ap.parse_args(argv)

    bad = []
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        try:
            export(args.base, tmp)
        except subprocess.CalledProcessError as e:
            print(f"perf_pairs: cannot export {args.base}: {e.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        sides = {"parent": tmp, "change": str(ROOT)}

        def run(side, seed, seconds, trace):
            print(f"perf_pairs: {side} seed {seed}", file=sys.stderr, flush=True)
            out, err = run_side(sides[side], args.workload, seed, seconds, trace)
            result = result_of(out)
            why = problems(result)
            if why:
                bad.append(f"{side} seed {seed}: {', '.join(why)}")
                sys.stderr.write(err[-2000:])
            return out, result

        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {side: run(side, seed, args.seconds, 0)[1] for side in order}
            pairs.append((seed, order[0], results["parent"], results["change"]))

        print(f"{args.workload}: {args.pairs} pair(s) of {args.seconds:g}-s runs, "
              f"parent {args.base} vs change (working tree)")
        for line in summary(pairs):
            print(line)

        if args.sim_diff:
            outs = []
            for side in ("parent", "change"):
                path = Path(tmp) / f"{side}.trace.out"
                path.write_text(run(side, args.seed, 0, 1)[0])
                outs.append(str(path))
            p = subprocess.run([sys.executable, str(ROOT / "tools" / "sim_diff.py"), *outs],
                               capture_output=True, text=True)
            print(p.stdout + p.stderr, end="")
            if p.returncode != 0:
                bad.append("sim_diff found differences")

    for line in bad:
        print(f"perf_pairs: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
