#!/usr/bin/env bash
# Alternating parent/change pairs of perfbench runs, summarised as one
# BENCH_perf.json row.
#
#   bench/perf_pairs.sh PARENT_EXE CHANGE_EXE PAIRS SECONDS SEED
#
# PARENT_EXE and CHANGE_EXE are two builds of perfbench/main.exe.  For each
# of the four workloads the script runs PAIRS pairs of `--seed SEED
# --seconds SECONDS --trace 0` runs, the parent first in odd pairs and the
# change first in even pairs, so slow drift on the host hits both sides
# alike.  It prints one row on stdout: per workload, the q1/median/q3
# (inclusive quartiles) of ns_per_request and setup_s on each side and the
# number of pairs the change won; plus the host's core count, the OCaml
# version, and the reference-block timings the runs reported.  Failed
# operations and correctness are counted per side.  Every run is also
# logged on stderr as it finishes ("workload side pair ns_per_request
# setup_s reference_ms failed correct").
#
# Optional environment:
#   CHANGE=TEXT     what the change does (the row's "change" field)
#   PARENT_REV=REV  the parent's commit (the row's "parent" field)
#   APPEND=FILE     also append the row to FILE (a BENCH_perf.json)
set -euo pipefail

if [ $# -ne 5 ]; then
  sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
parent_exe=$1 change_exe=$2 pairs=$3 seconds=$4 seed=$5
for exe in "$parent_exe" "$change_exe"; do
  [ -x "$exe" ] || { echo "perf_pairs: $exe is not executable" >&2; exit 2; }
done
workloads="pareto-percpu pareto-hybrid mmpp-worksteal mix-percpu"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# One run: append "workload side pair ns_per_request setup_s reference_ms
# failed correct" to the raw log.
run() {
  local side=$1 exe=$2 w=$3 pair=$4 out
  out=$("$exe" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0)
  printf '%s\n' "$out" | awk -v w="$w" -v side="$side" -v pair="$pair" '
    /last reference block/ {
      match($0, /last reference block [0-9.]+/)
      split(substr($0, RSTART, RLENGTH), a, " "); ref = a[4]
    }
    /^\{/ {
      correct = ($0 ~ /"correct": true/) ? "true" : "false"
      match($0, /"failed": [0-9]+/); split(substr($0, RSTART, RLENGTH), f, " ")
      match($0, /"ns_per_request": \{"value": [0-9.e+-]+/)
      split(substr($0, RSTART, RLENGTH), n, " ")
      match($0, /"setup_s": \{"value": [0-9.e+-]+/)
      split(substr($0, RSTART, RLENGTH), s, " ")
      print w, side, pair, n[3], s[3], ref, f[2], correct
    }' | tee -a "$raw" >&2
}

for w in $workloads; do
  for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
      run parent "$parent_exe" "$w" "$pair"; run change "$change_exe" "$w" "$pair"
    else
      run change "$change_exe" "$w" "$pair"; run parent "$parent_exe" "$w" "$pair"
    fi
  done
done

ocaml_version=$(ocamlfind ocamlopt -version 2>/dev/null || ocamlopt -version)
if ocamlfind ocamlopt -config 2>/dev/null | grep -q '^flambda: true'; then
  flambda="flambda"
else
  flambda="no flambda"
fi
host="$(uname -m), $(awk -F': ' '/model name/ { print $2; exit }' /proc/cpuinfo), $(nproc) vCPUs"

row=$(sort -k1,1 -k2,2 -k3,3n "$raw" | awk \
  -v change="${CHANGE:-}" -v parent="${PARENT_REV:-}" -v seed="$seed" \
  -v seconds="$seconds" -v pairs="$pairs" -v cores="$(nproc)" \
  -v ocaml="$ocaml_version ($flambda)" -v host="$host" -v order_ws="$workloads" '
  # inclusive quartile of the sorted values v[1..n]
  function q(v, n, p,   h, lo) {
    h = (n - 1) * p; lo = int(h)
    return lo + 1 >= n ? v[n] : v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1])
  }
  function sortn(v, n,   i, j, x) {
    for (i = 2; i <= n; i++) {
      x = v[i]; for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]; v[j + 1] = x
    }
  }
  function quart(key, fmt,   v, n, i) {
    n = cnt[key]; for (i = 1; i <= n; i++) v[i] = val[key, i]
    sortn(v, n)
    return sprintf("{ \"q1\": " fmt ", \"median\": " fmt ", \"q3\": " fmt " }",
                   q(v, n, 0.25), q(v, n, 0.5), q(v, n, 0.75))
  }
  {
    w = $1; side = $2; pair = $3
    val[w, side, "ns", ++cnt[w, side, "ns"]] = $4
    val[w, side, "setup", ++cnt[w, side, "setup"]] = $5
    by_pair[w, side, "ns", pair] = $4; by_pair[w, side, "setup", pair] = $5
    refs[++nrefs] = $6
    failed[side] += $7
    if ($8 != "true") incorrect[side] = 1
  }
  END {
    sortn(refs, nrefs)
    printf "    {\n"
    printf "      \"change\": \"%s\",\n      \"parent\": \"%s\",\n", change, parent
    printf "      \"command\": \"perfbench/main.exe --workload W --seed %d --seconds %d --trace 0\",\n", seed, seconds
    printf "      \"seed\": %d,\n      \"run_seconds\": %d,\n      \"pairs\": %d,\n", seed, seconds, pairs
    printf "      \"order\": \"alternating: parent first in odd pairs, change first in even pairs\",\n"
    printf "      \"host\": \"%s\",\n      \"host_cores\": %d,\n      \"ocaml\": \"%s\",\n", host, cores, ocaml
    printf "      \"reference_block\": { \"nominal_s\": 0.004, \"measured_ms_median\": %s, \"measured_ms_min\": %s, \"measured_ms_max\": %s },\n",
      q(refs, nrefs, 0.5), refs[1], refs[nrefs]
    printf "      \"workloads\": {\n"
    nw = split(order_ws, ws, " ")
    for (i = 1; i <= nw; i++) {
      w = ws[i]
      printf "        \"%s\": {\n", w
      split("ns setup", ms, " ")
      for (m = 1; m <= 2; m++) {
        k = ms[m]; fmt = (k == "ns") ? "%.0f" : "%.6g"
        wins = 0
        for (p = 1; p <= pairs; p++)
          if (by_pair[w, "change", k, p] < by_pair[w, "parent", k, p]) wins++
        printf "          \"%s\": { \"parent\": %s, \"change\": %s, \"change_wins\": %d }%s\n",
          (k == "ns") ? "ns_per_request" : "setup_s",
          quart(w SUBSEP "parent" SUBSEP k, fmt), quart(w SUBSEP "change" SUBSEP k, fmt),
          wins, (m == 1) ? "," : ""
      }
      printf "        }%s\n", (i < nw) ? "," : ""
    }
    printf "      },\n"
    printf "      \"failed_operations\": { \"parent\": %d, \"change\": %d },\n", failed["parent"], failed["change"]
    printf "      \"all_runs_correct\": { \"parent\": %s, \"change\": %s }\n    }",
      incorrect["parent"] ? "false" : "true", incorrect["change"] ? "false" : "true"
  }')

printf '%s\n' "$row"

# The trajectory file ends with the rows array's "  ]" and the closing
# "}": splice the row in before them.
if [ -n "${APPEND:-}" ]; then
  if [ "$(tail -n 2 "$APPEND" | tr -d ' \n')" != "]}" ]; then
    echo "perf_pairs: $APPEND does not end with '  ]' and '}'" >&2
    exit 1
  fi
  tmp=$(mktemp)
  { head -n -2 "$APPEND" | sed '$ s/}$/},/'; printf '%s\n  ]\n}\n' "$row"; } > "$tmp"
  mv "$tmp" "$APPEND"
fi
