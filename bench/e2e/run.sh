#!/usr/bin/env bash
# Builds plankton_bench (Release) and runs one workload. Run from the root of
# the repository:
#
#   bash bench/e2e/run.sh --workload verify_spvp --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result. The build tree is ${CARGO_TARGET_DIR:-.bench_build}/e2e.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
jobs="$(nproc)"
if [ "$jobs" -gt 3 ]; then jobs=3; fi

cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target plankton_bench -j "$jobs" >&2
exec "$build/plankton_bench" --workdir "$build" "$@"
