#!/usr/bin/env bash
# Build the pcprof sampler as a shared object for LD_PRELOAD.
#
#   bench/pcprof/build.sh [OUT]    # default OUT: _build/pcprof/pcprof.so
#
# Plain C and glibc only; not part of the dune build.
set -euo pipefail
cd "$(dirname "$0")/../.."
out=${1:-_build/pcprof/pcprof.so}
mkdir -p "$(dirname "$out")"
${CC:-cc} -O2 -g -fPIC -shared -Wall -Wextra -o "$out" bench/pcprof/pcprof.c
echo "$out"
