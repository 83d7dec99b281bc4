#!/usr/bin/env sh
# Kernel speed gate: run the host_wallclock kernel-cell sweep and fail if
# the optimized backend is more than 5% slower than the reference in any
# (n, radix_bits) cell. This is the regression fence for the host kernel
# layer: "optimized" must never mean "slower".
#
# Also gates the key+payload (kv32) cell: the payload mirror must cost a
# bounded multiple of the bare-key sort (it adds one extra scatter pass
# over a same-sized lane), and host_wallclock itself aborts if the paired
# sort is unstable or changes the key lane.
#
# The MSD in-place radix and multiway mergesort backends (DESIGN.md §13)
# ride the same fence: their reference-vs-optimized cells (algo_kernels
# in the report) are held to the identical never-slower tolerance, and
# host_wallclock aborts if the two backends disagree on sorted output.
#
# Usage: scripts/kernel_speed_gate.sh [host_wallclock-binary] [--quick]
#   binary   path to a built host_wallclock (default: build/bench/host_wallclock;
#            build-native/bench/host_wallclock is what CI gates on)
#   --quick  small sizes (the ctest tier uses this)
set -eu

BIN="${1:-build/bench/host_wallclock}"
QUICK="${2:-}"
OUT="$(mktemp /tmp/kernel_speed_gate.XXXXXX.json)"
trap 'rm -f "$OUT"' EXIT

if [ ! -x "$BIN" ]; then
  echo "kernel_speed_gate: host_wallclock binary not found at $BIN" >&2
  echo "build it first: cmake --build <dir> --target host_wallclock" >&2
  exit 2
fi

if [ "$QUICK" = "--quick" ]; then
  # 1M rather than the bench harness's 64K/256K quick sizes: cells under
  # ~10 ms on a shared host are dominated by scheduler noise, not kernels,
  # and the quick tier gets a wider noise margin for the same reason.
  "$BIN" --kernels-only --sizes 1M --out "$OUT"
  TOLERANCE=0.90
  PAIRED_LIMIT=6.0
else
  "$BIN" --kernels-only --sizes 1M,4M --out "$OUT"
  TOLERANCE=0.95
  PAIRED_LIMIT=4.0
fi
export TOLERANCE PAIRED_LIMIT

python3 - "$OUT" <<'EOF'
import json
import os
import sys

# Optimized may be at most 5% slower than reference (10% in the quick
# tier, whose smaller cells carry more scheduler noise).
TOLERANCE = float(os.environ["TOLERANCE"])

with open(sys.argv[1]) as f:
    report = json.load(f)

cells = report["kernels"]["cells"]
if not cells:
    sys.exit("kernel_speed_gate: no kernel cells in report")

failures = []
for cell in cells:
    if cell["speedup"] < TOLERANCE:
        failures.append(
            "  n=%d radix=%d: optimized %.3fs vs reference %.3fs "
            "(%.2fx < %.2fx)"
            % (cell["n"], cell["radix_bits"],
               cell["optimized"]["total_s"], cell["reference"]["total_s"],
               cell["speedup"], TOLERANCE))
    print("  n=%-9d radix=%-2d speedup %.2fx"
          % (cell["n"], cell["radix_bits"], cell["speedup"]))

algo_cells = report.get("algo_kernels", {}).get("cells", [])
if not algo_cells:
    sys.exit("kernel_speed_gate: no algo-backend cells in report")
for cell in algo_cells:
    if cell["speedup"] < TOLERANCE:
        failures.append(
            "  %s n=%d dist=%s: optimized %.3fs vs reference %.3fs "
            "(%.2fx < %.2fx)"
            % (cell["algo"], cell["n"], cell["dist"],
               cell["optimized_s"], cell["reference_s"],
               cell["speedup"], TOLERANCE))
    print("  %-5s n=%-9d dist=%-13s speedup %.2fx"
          % (cell["algo"], cell["n"], cell["dist"], cell["speedup"]))

paired = report.get("paired")
if paired is None:
    sys.exit("kernel_speed_gate: no key+payload (kv32) cell in report")
PAIRED_LIMIT = float(os.environ["PAIRED_LIMIT"])
print("  kv32 paired n=%-9d radix=%-2d overhead %.2fx"
      % (paired["n"], paired["radix_bits"], paired["overhead"]))
if paired["overhead"] > PAIRED_LIMIT:
    failures.append(
        "  kv32 paired n=%d radix=%d: %.2fx payload-mirror overhead "
        "(limit %.2fx)"
        % (paired["n"], paired["radix_bits"], paired["overhead"],
           PAIRED_LIMIT))

if failures:
    print("kernel_speed_gate: FAIL:")
    print("\n".join(failures))
    sys.exit(1)
print("kernel_speed_gate: PASS (%d cells, all >= %.2fx; kv32 paired "
      "overhead %.2fx <= %.2fx)"
      % (len(cells), TOLERANCE, paired["overhead"], PAIRED_LIMIT))
EOF
