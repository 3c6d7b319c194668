#!/usr/bin/env bash
# Builds the end-to-end replay benchmark from source and runs it. Every
# argument goes to the benchmark (see README.md in this directory):
#
#   bench/e2e/run.sh --seed=1          every workload, full report
#   bench/e2e/run.sh --smoke           every workload at 1/20 scale, R=2
#   bench/e2e/run.sh --workload peak_k1 --seed 3 --seconds 8 --trace 0
#
# Build output goes to stderr; stdout carries only the benchmark's report,
# whose last line is its JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/e2e"
jobs="$(nproc)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
# Keeps the compiler's temporary files inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"

cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target maps_e2e_bench -j "$jobs" >&2

commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null ||
    echo unknown)"
fi
exec "$build/maps_e2e_bench" --commit="$commit" "$@"
