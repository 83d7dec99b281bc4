// Parallel LSD radix sort (§3.1 of the paper), one rank body for every
// programming model. Per pass:
//   1. local histogram of the current r-bit digit;
//   2. global histogram: the model's histogram collective;
//   3. permutation into the output array (all-to-all personalised
//      communication) — the model's permute/exchange step.
// The models differ only in steps 2 and 3 (see model_runtime.hpp).
#include <algorithm>

#include "sort/model_runtime.hpp"
#include "sort/seq_radix.hpp"

namespace dsm::sort {
namespace {

/// Local max of a key span, charged as one sweep.
Key charged_local_max(sim::ProcContext& ctx, std::span<const Key> keys) {
  Key mx = 0;
  for (const Key k : keys) mx = std::max(mx, k);
  ctx.busy_cycles(static_cast<double>(keys.size()) *
                  ctx.params().cpu.scan_cycles);
  ctx.stream(keys.size() * sizeof(Key), keys.size() * sizeof(Key));
  return mx;
}

}  // namespace

void radix_rank(sim::ProcContext& ctx, ModelRuntime& rt) {
  const SortSpec& spec = rt.spec();
  const int r = ctx.rank();
  RadixRank s(spec.radix_bits, rt.paired());
  s.passes = radix_passes(spec.radix_bits);
  if (spec.ablations.detect_max_key) {
    // §3.1: "the maximum key value determines how many iterations will
    // actually be needed".
    const Key local_max = charged_local_max(ctx, rt.part(0, r));
    s.passes = radix_passes_for_max(spec.radix_bits,
                                    rt.max_reduce(ctx, local_max));
  }
  rt.passes_used.store(s.passes, std::memory_order_relaxed);
  for (s.pass = 0; s.pass < s.passes; ++s.pass) {
    ctx.phase("local histogram");
    s.active = charged_histogram(ctx, rt.part(s.in(), r), s.pass,
                                 spec.radix_bits, s.hist, spec.kernel_backend);
    ctx.phase("global histogram");
    rt.histogram_collective(ctx, s);
    ctx.phase("permutation");
    rt.radix_permute(ctx, s);
  }
}

}  // namespace dsm::sort
