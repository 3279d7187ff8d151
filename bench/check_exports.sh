#!/usr/bin/env bash
# Dead-export gate: every `val` in lib/**/*.mli must have a caller outside
# its own module, every top-level value of a lib/ module without an .mli
# must have a caller anywhere, its own module included, and every
# optional argument `?x` of either must be passed by some call site.
# Four rules cover the types of lib/**/*.mli: every field of a record
# exported with its fields must be read, written, built or matched by a
# program unit outside its module; every such field must be read or
# matched by some program unit, its own module included (building or
# writing a field reads nothing); every field of a record the module
# exports a `default_config` for must be set by a program build outside
# the module; every constructor of an exported variant must be built by a
# program unit, its own module included.  Tests do not count as callers,
# readers, setters or builders.
#
#   bench/check_exports.sh
#
# Builds the typed trees (`dune build @check`) and the scanner
# (bench/check_exports.ml), then lists every exported `val` that no other
# compilation unit of the program references, and every top-level value
# of an .mli-less module that no program unit references.  Library
# modules, bench/, perfbench/, bin/ and examples/ count as callers;
# test/ does not.  A value only tests call passes if
# bench/test_only_exports.txt names it with a one-line reason (an accessor
# that lets a test observe state, a builder for a test's input, or a hook
# that lets a test drive a program step by hand); an entry with no
# reason, no test caller or a program caller fails.  Knobs follow the
# same rule: an optional argument no program call site passes (`~x:v` or
# `?x:v`; the module's own calls count) is listed, unless the allowlist
# names it as `Module.value ?x reason...` and some test passes it.  A
# field or constructor only tests use, or a field only tests read, passes
# with a `Module.type.field reason...` (or `Module.type.Constructor
# reason...`) line; so does a field
# only its own module reads while programs outside read its record's
# other fields (the record cannot become abstract).
# References are resolved by the type checker, so `M.x`, module aliases,
# `M.Sub.x`, local opens and `open M` are all seen.  It also lists every
# top-level `module X = M` alias in a lib/ .ml or .mli that no program
# path goes through.  Exits non-zero if the list is not empty.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build @check ./bench/check_exports.exe
exec ./_build/default/bench/check_exports.exe _build/default bench/test_only_exports.txt
