#!/usr/bin/env sh
# Smoke-check the DSMSORT_NATIVE configuration: build the library with the
# kernel TU compiled -march=native and run the kernel equivalence tests
# against it. The kernels are the only TU allowed to vary by host ISA
# (charge-invariance, DESIGN.md §9), so this is the config CI uses to
# catch a vectorised kernel diverging from the reference backend.
#
# Usage: scripts/native_smoke.sh [build-dir]   (default build-native)
set -eu

BUILD_DIR="${1:-build-native}"
SRC_DIR="$(dirname "$0")/.."

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DDSMSORT_NATIVE=ON \
  -DDSMSORT_BUILD_BENCH=ON \
  -DDSMSORT_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" --target sort_tests host_wallclock -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'Kernel|MultiHistogram|Permute|SeqRadixBackend|ChargedLocalSort|FullSortBackend|ExchangeCopy|WcFlush|WorkerExchange'

# The vectorised kernels must also not be slower: gate the cell sweep.
"$SRC_DIR/scripts/kernel_speed_gate.sh" "$BUILD_DIR/bench/host_wallclock" --quick
