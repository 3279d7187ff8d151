#!/usr/bin/env bash
# The -inline sweep behind the root dune file's value: perfbench built at
# each value, run in interleaved rounds on every benchmark workload.
#
#   bench/inline_sweep.sh ROUNDS SECONDS SEED [VALUE...]
#
# VALUEs default to "10 50 100 200 400"; 10 is ocamlopt's own default, so
# that variant is the release profile alone, and the value "dev" builds
# the dev profile (-opaque) instead.  Each variant is built from a copy of
# this checkout (its files git does not ignore) with the -inline value in
# the root dune file replaced.  Each round runs every workload once per
# variant, `--seed SEED --seconds SECONDS --trace 0`, the variants in an
# order rotated by one each round.  Prints a markdown table per metric:
# the median ns_per_request and setup_s over the rounds, and for
# ns_per_request the rounds each variant was the fastest.  Every run is
# logged on stderr ("workload variant round ns_per_request setup_s").
#
# Optional environment:
#   WORK=DIR   build the copies under DIR and keep them (default: a
#              temporary directory, removed at exit)
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
rounds=$1 seconds=$2 seed=$3
shift 3
[ $# -gt 0 ] || set -- 10 50 100 200 400
root=$(cd "$(dirname "$0")/.." && pwd)
if [ -n "${WORK:-}" ]; then
  work=$WORK
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
workloads="pareto-percpu pareto-hybrid mmpp-worksteal mix-percpu"

for v in "$@"; do
  dir="$work/$v"
  rm -rf "$dir" && mkdir -p "$dir"
  (cd "$root" && git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf -) \
    | tar -xf - -C "$dir"
  if [ "$v" = dev ]; then
    (cd "$dir" && dune build --root . --profile dev ./perfbench/main.exe)
  else
    sed -i "s/-inline [0-9]*/-inline $v/" "$dir/dune"
    grep -q -- "-inline $v)" "$dir/dune" \
      || { echo "inline_sweep: no -inline in $dir/dune" >&2; exit 1; }
    (cd "$dir" && dune build --root . ./perfbench/main.exe)
  fi
done

raw="$work/runs.txt"
: > "$raw"
n=$#
for r in $(seq 1 "$rounds"); do
  for w in $workloads; do
    for k in $(seq 0 $((n - 1))); do
      i=$(((k + r) % n + 1))
      v=${!i}
      out=$("$work/$v/_build/default/perfbench/main.exe" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)
      case $out in
        *'"correct": true, "attempted": '*', "failed": 0,'*) ;;
        *) echo "inline_sweep: $w under $v failed its check: $out" >&2; exit 1 ;;
      esac
      printf '%s\n' "$out" | awk -v w="$w" -v v="$v" -v r="$r" '{
        match($0, /"ns_per_request": \{"value": [0-9.e+-]+/)
        split(substr($0, RSTART, RLENGTH), a, " ")
        match($0, /"setup_s": \{"value": [0-9.e+-]+/)
        split(substr($0, RSTART, RLENGTH), b, " ")
        print w, v, r, a[3], b[3]
      }' | tee -a "$raw" >&2
    done
  done
done

awk -v order_vs="$*" -v order_ws="$workloads" '
  function median(key,   v, n, i, j, x) {
    n = cnt[key]
    for (i = 1; i <= n; i++) v[i] = val[key, i]
    for (i = 2; i <= n; i++) {
      x = v[i]; for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]; v[j + 1] = x
    }
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
  }
  {
    val[$1, $2, "ns", ++cnt[$1, $2, "ns"]] = $4
    val[$1, $2, "setup", ++cnt[$1, $2, "setup"]] = $5
    if (!(($1, $3) in best) || $4 < best[$1, $3]) { best[$1, $3] = $4; winner[$1, $3] = $2 }
  }
  END {
    for (k in winner) { split(k, p, SUBSEP); wins[p[1], winner[k]]++ }
    nv = split(order_vs, vs, " "); nw = split(order_ws, ws, " ")
    split("ns setup", ms, " ")
    for (m = 1; m <= 2; m++) {
      printf "\n%s, median over the rounds%s\n\n| workload |", \
        (ms[m] == "ns") ? "ns_per_request" : "setup_s (ms)", \
        (ms[m] == "ns") ? " (rounds fastest)" : ""
      for (j = 1; j <= nv; j++) printf " %s |", (vs[j] == "dev") ? "dev" : "-inline " vs[j]
      printf "\n|---|"
      for (j = 1; j <= nv; j++) printf "---:|"
      printf "\n"
      for (i = 1; i <= nw; i++) {
        printf "| %s |", ws[i]
        for (j = 1; j <= nv; j++) {
          key = ws[i] SUBSEP vs[j] SUBSEP ms[m]
          if (ms[m] == "ns") printf " %.0f (%d) |", median(key), wins[ws[i], vs[j]]
          else printf " %.2f |", 1000 * median(key)
        }
        printf "\n"
      }
    }
  }' "$raw"
