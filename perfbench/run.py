#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary from this checkout's sources (perfbench/ plus
the simulator's src/), then runs one workload and relays its report:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Extra options (--nodes, --rpn) pass through to the binary;
the benchmark's own tests use them for tiny shapes. The last line of stdout
is the JSON result {"correct", "attempted", "failed", "metrics"}; build
output goes to stderr. The build tree is <CARGO_TARGET_DIR or
.bench_build>/perfbench under the checkout root, and traced runs leave their
spans there as trace-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build() -> Path:
    """Configure (once) and build the binary; returns the executable path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.trace:
        cmd += ["--trace-out", str(build_dir() / f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    rc = main()
    sys.exit(rc if rc >= 0 else 1)
