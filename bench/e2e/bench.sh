#!/usr/bin/env bash
# Build the end-to-end benchmark if needed, then run it once:
#
#   bash bench/e2e/bench.sh --workload NAME --seed S [--seconds N]
#                           [--trace 0|1] [--trace-out FILE] [--smoke]
#
# The standalone project in bench/e2e builds the library from the
# repository's sources into .bench_build/e2e; build output goes to stderr
# so the last line of stdout stays the run's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
# Configuring is slow, so it runs only when there is no usable build tree.
if [[ ! -f "$build/CMakeCache.txt" ]] || ! cmake --build "$build" -j 4 >&2; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$build" -j 4 >&2
fi
exec "$build/likwid_e2e" "$@"
