#!/usr/bin/env bash
# Dead-export gate: every `val` in lib/**/*.mli must have a caller outside
# its own module, and every top-level value of a lib/ module without an
# .mli must have a caller anywhere, its own module included.
#
#   bench/check_exports.sh
#
# Builds the typed trees (`dune build @check`) and the scanner
# (bench/check_exports.ml), then lists every exported `val` that no other
# compilation unit references, and every top-level value of an .mli-less
# module that no compilation unit references.  Library modules, test/,
# bench/, perfbench/, bin/ and examples/ all count as callers.  References
# are resolved by the type checker, so `M.x`, module aliases, `M.Sub.x`,
# local opens and `open M` are all seen.  Exits non-zero if the list is
# not empty.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build @check ./bench/check_exports.exe
exec ./_build/default/bench/check_exports.exe _build/default
