#!/usr/bin/env bash
# Resolve a pcprof profile to symbols and print the hottest functions.
#
#   bench/pcprof/report.sh PROFILE [TOP [REGEX...]]   # TOP defaults to 40
#
# For each function: "incl" is the share of samples with the function
# anywhere on the stack (counted once per sample, so recursion does not
# inflate it), "self" the share with the function as the interrupted PC.
# Symbols come from `nm` on each loaded object named in PROFILE's "obj"
# lines (the dynamic table for shared libraries); an address outside
# every named symbol is charged to "[object basename]".  Each REGEX (an
# awk extended regular expression over symbol names) adds a line with the
# share of samples where any frame matches it: a layer's or a primitive's
# inclusive share, nested matches counted once.
set -euo pipefail
prof=$1 top=${2:-40}
shift $(( $# < 2 ? $# : 2 ))
groups=$(printf '%s\t' "$@")
syms=$(mktemp)
trap 'rm -f "$syms"' EXIT
i=0
grep '^obj ' "$prof" | while read -r _ bias start end path; do
  if [[ $path == *.so* ]]; then flags=(-D); else flags=(); fi
  nm -n --defined-only "${flags[@]}" "$path" 2>/dev/null \
    | awk -v o="$i" '$2 ~ /^[TtWw]$/ && $3 !~ /\.(code_begin|code_end)$/ { print o, $1, $3 }' || true
  i=$((i + 1))
done > "$syms"
awk -v top="$top" -v groups="$groups" '
  BEGIN { nobj = 0; ngroups = split(groups, group, "\t") - 1 }
  function hex(s,   n, k, c) {
    n = 0; s = tolower(s)
    for (k = 1; k <= length(s); k++) { c = index("0123456789abcdef", substr(s, k, 1)) - 1; n = n * 16 + c }
    return n
  }
  # The symbol of address [a] in object [o]: binary search of its sorted table.
  function lookup(o, a,   lo, hi, mid) {
    lo = 1; hi = nsym[o]
    if (hi == 0 || a < addr[o, 1]) return ""
    while (lo < hi) { mid = int((lo + hi + 1) / 2); if (addr[o, mid] <= a) lo = mid; else hi = mid - 1 }
    return name[o, lo]
  }
  function resolve(x,   a, o, s) {
    a = hex(x)
    for (o = 0; o < nobj; o++)
      if (a >= ostart[o] && a < oend[o]) {
        s = lookup(o, a - obias[o])
        return s != "" ? s : "[" obase[o] "]"
      }
    return "[unknown]"
  }
  FNR == NR { k = ++nsym[$1]; addr[$1, k] = hex($2); name[$1, k] = $3; next }
  /^obj / {
    obias[nobj] = hex($2); ostart[nobj] = hex($3); oend[nobj] = hex($4)
    n = split($5, parts, "/"); obase[nobj] = parts[n]; nobj++; next
  }
  {
    total++
    delete seen
    delete hit
    for (f = 1; f <= NF; f++) {
      s = resolve($f)
      if (f == 1) self[s]++
      if (!(s in seen)) {
        seen[s] = 1; incl[s]++
        for (g = 1; g <= ngroups; g++) if (!(g in hit) && s ~ group[g]) { hit[g] = 1; ghits[g]++ }
      }
    }
  }
  END {
    if (total == 0) { print "no samples"; exit 1 }
    printf "%d samples\n", total
    for (g = 1; g <= ngroups; g++) printf "%7.2f          /%s/\n", 100 * ghits[g] / total, group[g]
    printf "%7s %7s  %s\n", "incl%", "self%", "function"
    for (s in incl) printf "%7.2f %7.2f  %s\n", 100 * incl[s] / total, 100 * self[s] / total, s | "sort -k1,1nr | head -n " top
  }' "$syms" "$prof"
