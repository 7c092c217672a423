#!/usr/bin/env bash
# Host-time profile of one benchmark workload: the top 20 of gprof's flat
# profile.
#
#   tools/gprof_top.sh <workload> [seconds]
#
# Configures perfbench/ (which compiles the simulator's src/ beside its own
# driver) with -pg into build-gprof/ at the repository root, runs
# <workload> untraced for [seconds] (default 10; the warm-up pass always
# runs, so short runs still cover one full pass), and prints the top 20
# entries of the flat profile. Workloads: umt_modes, umt_ikc_ring,
# qbox_churn. The report itself goes to stderr; gmon.out stays in
# build-gprof/ for `gprof -b build-gprof/perfbench.gprof build-gprof/gmon.out`.
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
cd "$out"
rm -f gmon.out
./perfbench --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >&2

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
gprof -b -p perfbench.gprof gmon.out | head -n 25
