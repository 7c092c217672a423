#!/usr/bin/env bash
# Host-time profile of one benchmark workload: the top 20 of gprof's flat
# profile, how much of the run gprof saw, and its samples rolled up by layer.
#
#   tools/gprof_top.sh <workload> [seconds]
#
# Configures perfbench/ (which compiles the simulator's src/ beside its own
# driver) with -pg into build-gprof/ at the repository root, runs
# <workload> untraced for [seconds] (default 10; the warm-up pass always
# runs, so short runs still cover one full pass), and prints to stdout:
#
#   * the top 20 entries of the flat profile;
#   * gprof's sampled total beside the process's CPU seconds. gprof samples
#     only code compiled with -pg: the rest of the CPU time is mcount's own
#     overhead and time in libc and libstdc++ (malloc and free among it);
#   * a per-layer rollup of the flat profile's self seconds, by the
#     simulator namespace a function is defined in (pd::sim, mem, hw, hfi,
#     pico, ikc, psm, mpirt, os); everything else, libstdc++ templates
#     instantiated for simulator types included, is "other".
#
# Workloads: umt_modes, umt_ikc_ring, qbox_churn. Build and benchmark output
# goes to stderr; gmon.out stays in build-gprof/ for
# `gprof -b build-gprof/perfbench.gprof build-gprof/gmon.out`.
#
# gprof drops symbols whose names contain '.' (numbered, .clone and
# .constprop clones aside) and charges their samples to whichever function
# precedes them in the binary. GCC names coroutine bodies `<fn>.Frame.actor`
# and other clones `.cold`, `.isra.N` or `.part.N`, so the profile is read
# against perfbench.gprof, a copy whose dotted function symbols are renamed
# to their demangled, dot-free form, e.g.
# `pd::hfi::HfiDriver::ioctl(pd::os::OpenFile&, unsigned long, void*) [actor]`.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <workload> [seconds]" >&2
  exit 2
fi
workload=$1
seconds=${2:-10}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/build-gprof
jobs=$(nproc 2>/dev/null || echo 1)
((jobs > 4)) && jobs=4

cmake -S "$root/perfbench" -B "$out" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$out" --target perfbench -j"$jobs" >&2

# gmon.out is written to the working directory when the process exits.
# The subshell's `times` reports its children's CPU time: perfbench's alone.
cd "$out"
rm -f gmon.out
cpu_s=$( (./perfbench --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >&2
          times) |
        awk 'NR == 2 { split($1, u, /[ms]/); split($2, k, /[ms]/)
                       printf "%.2f", 60 * u[1] + u[2] + 60 * k[1] + k[2] }')

# Rename every dotted function symbol: demangle it, shorten a coroutine
# body's `f(f(args)::<frame>*) [clone .actor]` to `f(args) [actor]`, then
# drop the remaining dots. Names that collide get a ` #n` suffix, since
# objcopy needs distinct targets; the response file quotes their spaces.
nm --defined-only perfbench | awk '$2 ~ /^[tTwW]$/ && $3 ~ /\./ {print $3}' | sort -u \
  > dotted.syms
c++filt < dotted.syms |
  sed -E -e 's/^(.+)\(\1(\(.*\)( const)?)::_Z[[:alnum:]_]*\.Frame\*\)/\1\2/' \
    -e 's/ \[clone \.([^]]*)\]/ [\1]/g' -e 's/[.$]/_/g' |
  paste -d '\t' dotted.syms - |
  awk -F '\t' '{ n = $2; if (seen[n]++) n = n " #" seen[n]; gsub(/[\\"]/, "\\\\&", n)
                 printf "--redefine-sym \"%s=%s\"\n", $1, n }' > redefine.args
objcopy @redefine.args perfbench perfbench.gprof

# Flat profile: a 5-line header, then one line per function by self time.
gprof -b -p perfbench.gprof gmon.out > flat.txt
head -n 25 flat.txt

# Self seconds per layer. Each function line holds %time, cumulative and
# self seconds, three optional call-count columns, then the name. With its
# template arguments and argument list dropped, a function belongs to the
# last `pd::<layer>::` that starts a word of its name (a leading return
# type such as `pd::sim::Task<...>` comes first).
awk '
  NR > 5 && $1 ~ /^[0-9.]+$/ {
    name = $0
    sub(/^ *[0-9.]+ +[0-9.]+ +[0-9.]+ +([0-9]+ +[0-9.]+ +[0-9.]+ +)?/, "", name)
    while (gsub(/<[^<>]*>/, "", name)) {}
    sub(/\(.*/, "", name)
    layer = "other"
    while (match(name, /(^| )pd::(sim|mem|hw|hfi|pico|ikc|psm|mpirt|os)::/)) {
      layer = substr(name, RSTART, RLENGTH)
      gsub(/^ ?pd::|::$/, "", layer)
      name = substr(name, RSTART + RLENGTH)
    }
    self[layer] += $3
  }
  END { for (l in self) printf "%s %.2f\n", l, self[l] }' flat.txt | sort -k2,2 -rn > layers.txt

sampled=$(awk '{ s += $2 } END { printf "%.2f", s }' layers.txt)
echo
awk -v s="$sampled" -v c="$cpu_s" \
  'BEGIN { printf "gprof sampled %.2f s of %.2f s process CPU (%.0f %%)\n", s, c, (c > 0 ? 100 * s / c : 0) }'
echo
echo "Self seconds by layer:"
awk -v t="$sampled" '{ printf "  %-6s %8.2f s %6.1f %%\n", $1, $2, (t > 0 ? 100 * $2 / t : 0) }' layers.txt
