#!/usr/bin/env bash
# Host-memory profile of one benchmark workload: the peak live heap and the
# 20 allocation sites that held most of it at that moment.
#
#   tools/heap_top.sh <workload> [seconds [perfbench options...]]
#
# Configures perfbench/ (which compiles the simulator's src/ beside its own
# driver) with debug info into build-heap/ at the repository root, builds
# tools/heap_shim.c there with the host C compiler, and runs <workload>
# untraced for [seconds] (default 10; the warm-up pass always runs) with the
# shim preloaded. Further options (--nodes N --rpn R, ...) go to perfbench.
# It prints to stdout:
#
#   * the peak live heap: the most bytes malloc'd and not yet freed at any
#     one moment of the run, and how many blocks held them;
#   * the top 20 sites at that moment by live bytes. A site is a 3-frame
#     allocation stack: the first three frames of the simulator's own code
#     (operator new and other library frames are skipped), symbolized with
#     `addr2line -f -C` and printed allocating frame first.
#
# Workloads: umt_modes, umt_ikc_ring, qbox_churn. Build and benchmark output
# goes to stderr; the shim's raw table stays in build-heap/heap.txt.
#
# The shim takes a backtrace per allocation, so the run does less simulated
# work per second than an unprofiled one. Live heap is what the program
# asked malloc for; peak RSS (perfbench's peak_rss_mb) adds allocator
# overhead, freed-but-cached memory, code and stacks.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <workload> [seconds [perfbench options...]]" >&2
  exit 2
fi
workload=$1
seconds=${2:-10}
shift $(($# >= 2 ? 2 : 1))

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/build-heap
jobs=$(nproc 2>/dev/null || echo 1)
((jobs > 4)) && jobs=4

cmake -S "$root/perfbench" -B "$out" -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-g >&2
cmake --build "$out" --target perfbench -j"$jobs" >&2
"${CC:-cc}" -O2 -shared -fPIC -o "$out/heap_shim.so" "$root/tools/heap_shim.c"

rm -f "$out/heap.txt"
HEAP_TOP_OUT=$out/heap.txt LD_PRELOAD=$out/heap_shim.so \
  "$out/perfbench" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 "$@" >&2
[[ -s $out/heap.txt ]] || { echo "$0: the shim wrote no report" >&2; exit 1; }

# Top 20 sites; one addr2line call names all their frames (0 = no frame).
# awk, not head, ends the pipe: it reads to the end, so sort never gets
# SIGPIPE (which pipefail would turn into a failure).
tail -n +2 "$out/heap.txt" | sort -k1,1nr | awk 'NR <= 20' > "$out/heap.top"
awk '{ print $3; print $4; print $5 }' "$out/heap.top" |
  addr2line -f -C -e "$out/perfbench" |
  awk 'NR % 2 == 1' > "$out/heap.names"

# A name keeps its class and function, not its return type, argument list
# or template arguments; a coroutine body is `f [actor]`.
awk -v peak_line="$(head -n 1 "$out/heap.txt")" '
  function short(name,   tail, n, w) {
    if (name == "??") return "?"
    tail = ""
    if (name ~ /\.actor|Frame\*/) tail = " [actor]"
    gsub(/\(anonymous namespace\)/, "{anon}", name)
    gsub(/operator\(\)/, "operator#", name)
    while (gsub(/<[^<>]*>/, "", name)) {}
    sub(/\(.*/, "", name)
    n = split(name, w, " ")
    if (n > 1 && w[n - 1] !~ /operator$/) name = w[n]
    sub(/operator#/, "operator()", name)
    return name tail
  }
  NR == FNR { names[FNR] = $0; next }
  FNR == 1 {
    split(peak_line, p, " ")
    total = p[2]
    printf "Peak live heap: %.1f MB in %d blocks\n\n", total / 1e6, p[3]
    printf "%8s %6s %9s  %s\n", "MB", "%", "blocks", "site (allocating frame < caller < its caller)"
  }
  {
    site = ""
    for (f = 0; f < 3; ++f) {
      pc = $(3 + f)
      if (pc == "0") continue
      site = site (site == "" ? "" : " < ") short(names[3 * (FNR - 1) + f + 1])
    }
    printf "%8.2f %6.1f %9d  %s\n", $1 / 1e6, (total > 0 ? 100 * $1 / total : 0), $2, site
  }' "$out/heap.names" "$out/heap.top"
