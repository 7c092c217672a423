#!/usr/bin/env bash
# Self-test of tools/heap_top.sh: profiles a 2-node, 4-rank-per-node
# umt_ikc_ring run (one pass) and checks that the report shows a positive
# peak live heap, at least one site in the simulator's own code, no site
# frame in library code (inlined std:: frames are named by their owners),
# and no site on two rows (stacks that name one site are summed).
#
#   tools/test_heap_top.sh
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
report=$("$root/tools/heap_top.sh" umt_ikc_ring 0 --nodes 2 --rpn 4 2>/dev/null)
echo "$report"

fail() {
  echo "test_heap_top: $1" >&2
  exit 1
}
peak=$(awk '/^Peak live heap:/ { print $4 }' <<<"$report")
[[ -n $peak ]] || fail "no 'Peak live heap' line"
awk -v mb="$peak" 'BEGIN { exit !(mb > 0) }' || fail "peak live heap is $peak MB"
grep -q 'pd::' <<<"$report" || fail "no pd:: allocation site in the top 20"
sites=$(awk '$1 ~ /^[0-9.]+$/ { $1 = $2 = $3 = ""; print }' <<<"$report")
if grep -qE '(^ *|< )(std|__gnu_cxx)::' <<<"$sites"; then
  fail "a site names a library frame"
fi
dups=$(sort <<<"$sites" | uniq -d)
[[ -z $dups ]] || fail "a site has more than one row:$dups"
echo "test_heap_top: ok (peak $peak MB)"
