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
#   * the top 20 sites at that moment by live bytes. The shim records the
#     first three return addresses in the executable (operator new and other
#     shared-library frames are skipped); `addr2line -f -C -i` expands each
#     into its chain of inlined frames. A site is the first three frames of
#     that expanded stack that are not library code (`std::` or
#     `__gnu_cxx::`), printed allocating frame first. Every recorded stack
#     is named, and stacks that name the same site share one row.
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

# Name every recorded stack before cutting to the top 20: stacks that
# differ only in frames a site does not show (a different call site in the
# same function, library frames) name the same site, and their bytes and
# blocks are summed into one row. One addr2line call names every distinct
# recorded frame (0 = no frame), in order of first appearance, each as an
# address line and then a function and location line per inlined frame,
# innermost first.
awk 'NR > 1 { for (f = 3; f <= 5; ++f) if ($f != "0" && !seen[$f]++) print $f }' "$out/heap.txt" |
  addr2line -a -f -C -i -e "$out/perfbench" > "$out/heap.names"

# A name keeps its class and function, not its return type, argument list
# or template arguments; a coroutine body is `f [actor]`. Writes one
# "bytes<TAB>blocks<TAB>site" line per site.
awk '
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
  # heap.names: frames[k, i] is the i-th frame of the k-th distinct
  # recorded address, innermost first.
  NR == FNR {
    if ($0 ~ /^0x[0-9a-f]+$/) { ++pcs; name_next = 1 }
    else if (name_next) { frames[pcs, ++depth[pcs]] = $0; name_next = 0 }
    else name_next = 1
    next
  }
  FNR == 1 { next }  # the peak line
  {
    site = ""
    kept = 0
    for (f = 3; f <= 5; ++f) {
      if ($f == "0") continue
      if (!($f in index_of)) index_of[$f] = ++seen
      k = index_of[$f]
      for (i = 1; i <= depth[k] && kept < 3; ++i) {
        name = short(frames[k, i])
        if (name ~ /^(std|__gnu_cxx)::/) continue
        site = site (site == "" ? "" : " < ") name
        ++kept
      }
    }
    bytes[site] += $1
    blocks[site] += $2
  }
  END { for (site in bytes) printf "%.0f\t%.0f\t%s\n", bytes[site], blocks[site], site }
' "$out/heap.names" "$out/heap.txt" > "$out/heap.sites"

# Top 20 sites by live bytes (ties by name). awk, not head, ends the pipe:
# it reads to the end, so sort never gets SIGPIPE (which pipefail would
# turn into a failure).
read -r _ total total_blocks < "$out/heap.txt"
awk -v total="$total" -v blocks="$total_blocks" 'BEGIN {
  printf "Peak live heap: %.1f MB in %d blocks\n\n", total / 1e6, blocks
  printf "%8s %6s %9s  %s\n", "MB", "%", "blocks", "site (allocating frame < caller < its caller)"
}'
sort -t "$(printf '\t')" -k1,1nr -k3,3 "$out/heap.sites" |
  awk -F '\t' -v total="$total" 'NR <= 20 {
    printf "%8.2f %6.1f %9d  %s\n", $1 / 1e6, (total > 0 ? 100 * $1 / total : 0), $2, $3
  }'
