#!/usr/bin/env bash
# Split a pcprof profile of perfbench into the simulator's layers.
#
#   bench/pcprof/layers.sh PROFILE [TOP]   # TOP source lines per layer, default 3
#
# Only samples with Scenario.finish (or Scenario.run) on the stack and
# Scenario.prepare off it count, so perfbench's reference block and each
# cell's setup stay out: Scenario.run is `finish (prepare ...)`, and its
# tail call leaves only finish's frame on the stack while the cell
# drains.  The samples under Scenario.prepare (cell setup) are counted on
# a line of their own.  Each kept sample is charged to its leaf PC:
# - OCaml code in the executable goes to the source file `addr2line`
#   gives for the PC.  OCaml's line table carries the location of inlined
#   code, so a function inlined into another layer's caller is still
#   charged to its own file.  A file under lib/<dir>/ is the layer
#   lib/<dir>; perfbench/ and the OCaml standard library have a row each.
# - caml_modify, the write barrier, has its own row; the rest of the OCaml
#   runtime (the GC, allocation, C primitives) shares "ocaml-runtime".
# - libm and libc share "libm/libc"; any other shared object is
#   "other:<name>".
# Under each layer the script prints its TOP source lines.
#
# This is the per-layer split to read: perfbench's `--trace 1` charges
# each sample at the next OCaml poll point, not where the signal
# arrived, and in the inlined build it reads the policy layer as 0.
set -euo pipefail
if [ $# -lt 1 ]; then
  sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
prof=$1 top=${2:-3}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Symbols of every loaded object, as report.sh reads them.
i=0
grep '^obj ' "$prof" | while read -r _ bias start end path; do
  if [[ $path == *.so* ]]; then flags=(-D); else flags=(); fi
  nm -n --defined-only "${flags[@]}" "$path" 2>/dev/null \
    | awk -v o="$i" '$2 ~ /^[TtWw]$/ && $3 !~ /\.(code_begin|code_end)$/ { print o, $1, $3 }' || true
  i=$((i + 1))
done > "$tmp/syms"
exe=$(awk '/^obj / { print $5; exit }' "$prof")

# One line per kept sample: "pc ADDR" (OCaml code, executable-relative
# hex address) or "row NAME".
awk '
  BEGIN { nobj = 0 }
  function hex(s,   n, k, c) {
    n = 0; s = tolower(s)
    for (k = 1; k <= length(s); k++) { c = index("0123456789abcdef", substr(s, k, 1)) - 1; n = n * 16 + c }
    return n
  }
  function lookup(o, a,   lo, hi, mid) {
    lo = 1; hi = nsym[o]
    if (hi == 0 || a < addr[o, 1]) return ""
    while (lo < hi) { mid = int((lo + hi + 1) / 2); if (addr[o, mid] <= a) lo = mid; else hi = mid - 1 }
    return name[o, lo]
  }
  # Sets [obj] and [rel] for hex address [x]; returns its symbol.
  function resolve(x,   a, o) {
    a = hex(x); obj = -1
    for (o = 0; o < nobj; o++)
      if (a >= ostart[o] && a < oend[o]) { obj = o; rel = a - obias[o]; return lookup(o, rel) }
    return ""
  }
  FNR == NR { k = ++nsym[$1]; addr[$1, k] = hex($2); name[$1, k] = $3; next }
  /^obj / {
    obias[nobj] = hex($2); ostart[nobj] = hex($3); oend[nobj] = hex($4)
    n = split($5, parts, "/"); obase[nobj] = parts[n]; nobj++; next
  }
  {
    total++
    under = 0; setup = 0
    for (f = NF; f >= 2 && !setup; f--) {
      s = resolve($f)
      if (s ~ /Scenario\.prepare(_inner)?_[0-9]+$/) setup = 1
      else if (s ~ /Scenario\.(run|finish)(_inner)?_[0-9]+$/) under = 1
    }
    if (setup) { prepared++; next }
    if (!under) next
    kept++
    s = resolve($1)
    if (obj < 0) print "row unknown"
    else if (obj == 0) {
      if (s == "caml_modify") print "row caml_modify"
      else if (s ~ /^caml[A-Z]/) printf "pc %x\n", rel
      else print "row ocaml-runtime"
    }
    else if (obase[obj] ~ /^lib(m|c)\.so/) print "row libm/libc"
    else print "row other:" obase[obj]
  }
  END { printf "%d %d %d\n", total, kept, prepared > "/dev/stderr" }' "$tmp/syms" "$prof" \
  > "$tmp/leaves" 2> "$tmp/counts"

awk '$1 == "pc" { print $2 }' "$tmp/leaves" | sort -u > "$tmp/addrs"
addr2line -e "$exe" < "$tmp/addrs" > "$tmp/lines"
paste -d ' ' "$tmp/addrs" "$tmp/lines" > "$tmp/map"

awk -v counts="$(cat "$tmp/counts")" -v rows_out="$tmp/rows" -v lines_out="$tmp/lines_by_layer" '
  FNR == NR { loc[$1] = $2; next }
  function layer(path) {
    if (match(path, /(^|\/)lib\/[a-z_]+\//)) {
      path = substr(path, RSTART, RLENGTH); sub(/^\//, "", path); sub(/\/$/, "", path)
      return path
    }
    if (path ~ /(^|\/)perfbench\//) return "perfbench"
    if (path ~ /^\?\?/) return "unknown"
    if (path ~ /\/stdlib\/|(^|\/)(stdlib|std_exit|camlinternal[A-Za-z]*)\.ml:/) return "stdlib"
    return "other"
  }
  # The path from the layer down: "lib/sim/eventq.ml:45", "stdlib/array.ml:92".
  function short(path) {
    sub(/^.*\/workspace_root\//, "", path)
    sub(/^.*\/stdlib\//, "stdlib/", path)
    return path
  }
  {
    if ($1 == "pc") { where = loc[$2]; row = layer(where); line[row "\t" short(where)]++ }
    else row = $2
    n[row]++
  }
  END {
    split(counts, c, " ")
    printf "%d samples, %d under Scenario.finish\n", c[1], c[2]
    printf "%d under Scenario.prepare (cell setup, %.2f%% of all samples)\n", c[3], 100 * c[3] / c[1]
    if (c[2] == 0) exit 1
    for (r in n) printf "%.2f\t%s\n", 100 * n[r] / c[2], r > rows_out
    for (k in line) printf "%s\t%.2f\n", k, 100 * line[k] / c[2] > lines_out
  }' "$tmp/map" "$tmp/leaves"

printf '%7s  %s\n' "share%" "layer"
sort -t "$(printf '\t')" -k1,1nr "$tmp/rows" | while IFS="$(printf '\t')" read -r share row; do
  printf '%7s  %s\n' "$share" "$row"
  # The cap reads every line: `head` would close the pipe early, and under
  # pipefail sort's SIGPIPE would end the script after the first layers.
  awk -F '\t' -v r="$row" '$1 == r { print $3 "\t" $2 }' "$tmp/lines_by_layer" 2>/dev/null \
    | sort -t "$(printf '\t')" -k1,1nr | awk -v n="$top" 'NR <= n' \
    | awk -F '\t' '{ printf "         %7s  %s\n", $1, $2 }'
done
