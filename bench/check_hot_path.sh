#!/usr/bin/env bash
# Hot-path lint: the modules that run once or more per simulated event may
# not call a bare max, min or compare, nor use Hashtbl at all.
#
#   bench/check_hot_path.sh
#
# Under dune's dev profile (-opaque, no flambda) a bare max/min/compare is
# an out-of-line call to the polymorphic Stdlib primitive even on ints, and
# a Hashtbl lookup hashes its key polymorphically.  Ints use
# Int.max/Int.min/Int.compare; a deliberate float or polymorphic use writes
# Stdlib.max (etc.) in full.  Builds the scanner (bench/check_hot_path.ml,
# which reads each file with the compiler's lexer, so comments and strings
# never match) and exits non-zero on any violation.  DESIGN.md §3ab has
# the rules and the profile shares behind them.
set -euo pipefail
cd "$(dirname "$0")/.."
files=(
  lib/sim/eventq.ml lib/sim/engine.ml lib/sim/dist.ml
  lib/hw/machine.ml
  lib/kernel/fair.ml lib/kernel/linux.ml
  lib/core/*.ml
  lib/alloc/allocator.ml lib/alloc/policy.ml
  lib/policies/work_stealing.ml lib/policies/fair_percpu.ml lib/policies/rr.ml
  lib/scenario/arrival.ml lib/scenario/shape.ml lib/scenario/scenario.ml
  lib/net/loadgen.ml
  lib/stats/histogram.ml lib/stats/timeseries.ml lib/stats/summary.ml
  lib/obs/attribution.ml
)
dune build ./bench/check_hot_path.exe
exec ./_build/default/bench/check_hot_path.exe "${files[@]}"
