// Parallel sample sort (§3.2), one rank body for every programming model.
//
// Five phases: local sort -> sample selection -> splitter computation ->
// one contiguous all-to-all redistribution -> local sort of the received
// keys. Twice the local sorting work of radix sort, but far
// better-behaved communication (one contiguous block per process pair,
// remote *reads* under CC-SAS). The models differ only in the splitter and
// boundary collectives and the redistribution (see model_runtime.hpp);
// final runs land in result[rank], whose concatenation by rank is the
// globally sorted sequence.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "sort/merge_sort.hpp"
#include "sort/model_runtime.hpp"
#include "sort/msd_radix.hpp"
#include "sort/seq_radix.hpp"

namespace dsm::sort {
namespace {

LocalSort local_sort_of(Algo a) {
  switch (a) {
    case Algo::kMsdRadix: return LocalSort::kMsd;
    case Algo::kMergesort: return LocalSort::kMerge;
    case Algo::kRadix:
    case Algo::kSample: break;
  }
  return LocalSort::kLsd;
}

/// Local-sort dispatch for the skeleton's two sorting phases. Every
/// backend honors the same contracts (sorted result in `keys`, charges a
/// pure function of the key sequence), so the surrounding phases are
/// untouched. With `paired`, `pays` mirrors every key movement.
void charged_local_sort(sim::ProcContext& ctx, LocalSort alg, bool paired,
                        std::span<Key> keys, std::span<keys::Payload> pays,
                        std::span<Key> tmp, std::span<keys::Payload> pay_tmp,
                        int radix_bits, KernelBackend be, RadixWorkspace& ws) {
  switch (alg) {
    case LocalSort::kLsd:
      if (paired) {
        local_radix_sort_paired(ctx, keys, pays, tmp, pay_tmp, radix_bits, be,
                                ws);
      } else {
        local_radix_sort(ctx, keys, tmp, radix_bits, be, ws);
      }
      return;
    case LocalSort::kMsd:
      if (paired) {
        local_msd_sort_paired(ctx, keys, pays, be, ws);
      } else {
        local_msd_sort(ctx, keys, be, ws);
      }
      return;
    case LocalSort::kMerge:
      if (paired) {
        local_merge_sort_paired(ctx, keys, pays, tmp, radix_bits, be, ws);
      } else {
        local_merge_sort(ctx, keys, tmp, radix_bits, be, ws);
      }
      return;
  }
  DSM_REQUIRE(false, "unknown local sort");
}

/// Evenly select `s` samples from a sorted span (repeats allowed when the
/// span is shorter than s).
void select_samples(sim::ProcContext& ctx, std::span<const Key> sorted,
                    std::span<Key> out) {
  DSM_REQUIRE(!sorted.empty(), "cannot sample an empty partition");
  const std::uint64_t n = sorted.size();
  const std::uint64_t s = out.size();
  for (std::uint64_t i = 0; i < s; ++i) {
    out[i] = sorted[static_cast<std::size_t>((i * n) / s)];
  }
  ctx.busy_cycles(static_cast<double>(s) * ctx.params().cpu.scan_cycles);
  ctx.stream(s * sizeof(Key), s * sizeof(Key));
}

/// Partition boundaries of rank `r`'s sorted run by the splitters, with
/// ties broken by source rank: a key equal to splitter_k stays in the
/// lower destination iff r < splitter_k.src.
/// bounds[0]=0, bounds[p]=n.
void charged_boundaries(sim::ProcContext& ctx, std::span<const Key> sorted,
                        std::span<const Splitter> splitters,
                        std::span<std::uint64_t> bounds) {
  const std::size_t p = splitters.size() + 1;
  const int r = ctx.rank();
  DSM_REQUIRE(bounds.size() == p + 1, "bounds must have p+1 entries");
  bounds[0] = 0;
  bounds[p] = sorted.size();
  for (std::size_t k = 1; k < p; ++k) {
    const Splitter& sp = splitters[k - 1];
    const auto it = r < sp.src
                        ? std::upper_bound(sorted.begin(), sorted.end(),
                                           sp.value)
                        : std::lower_bound(sorted.begin(), sorted.end(),
                                           sp.value);
    bounds[k] = static_cast<std::uint64_t>(it - sorted.begin());
  }
  // Monotonicity can break only on malformed splitter sets; clamp-check.
  for (std::size_t k = 1; k <= p; ++k) {
    DSM_CHECK(bounds[k] >= bounds[k - 1], "boundaries must be monotone");
  }
  if (p > 1 && !sorted.empty()) {
    ctx.busy_cycles(static_cast<double>(p - 1) *
                    std::log2(static_cast<double>(sorted.size())) *
                    ctx.params().cpu.binary_search_cycles);
  }
}

}  // namespace

void sample_rank(sim::ProcContext& ctx, ModelRuntime& rt) {
  const SortSpec& spec = rt.spec();
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const auto rr = static_cast<std::size_t>(r);
  const LocalSort alg = local_sort_of(spec.algo);
  const bool paired = rt.paired();
  SampleRank s;
  RadixWorkspace ws;  // kernel scratch shared by both local sort phases

  // Phase 1: local sort of my partition, in place in array 0 (where the
  // exchange can read it remotely).
  ctx.phase("local sort 1");
  s.mine = rt.part(0, r);
  std::vector<Key> tmp(s.mine.size());
  std::vector<keys::Payload> pay_tmp(paired ? s.mine.size() : 0);
  charged_local_sort(ctx, alg, paired, s.mine, rt.pay(0, r), tmp, pay_tmp,
                     spec.radix_bits, spec.kernel_backend, ws);

  // Phases 2+3: samples, then splitters from every rank's samples.
  ctx.phase("sampling");
  s.samples.resize(static_cast<std::size_t>(spec.ablations.sample_count));
  select_samples(ctx, s.mine, s.samples);
  rt.share_samples(ctx, s);
  ctx.phase("splitters");
  s.splitters.resize(static_cast<std::size_t>(p - 1));
  rt.splitter_collective(ctx, s);

  // Phase 4: boundaries, published so every rank can size its run.
  ctx.phase("partition");
  s.bounds.resize(static_cast<std::size_t>(p + 1));
  charged_boundaries(ctx, s.mine, s.splitters, s.bounds);
  const std::span<const std::uint64_t> all_bounds =
      rt.bounds_collective(ctx, s);
  const auto bounds_row = [&](int j) {
    return all_bounds.data() +
           static_cast<std::size_t>(j) * static_cast<std::size_t>(p + 1);
  };
  std::uint64_t total = 0;
  for (int j = 0; j < p; ++j) total += bounds_row(j)[r + 1] - bounds_row(j)[r];
  std::vector<Key>& out = rt.result[rr];
  out.resize(total);
  if (paired) rt.pay_result[rr].resize(total);

  ctx.phase("redistribution");
  rt.sample_exchange(ctx, s, all_bounds);
  if (paired) {
    // Receiver-side payload pull in the keys' source-rank order. The
    // lanes are host mirrors outside the simulated machine (uncharged),
    // and every source's lane is final once the boundary collective has
    // passed.
    std::uint64_t pos = 0;
    for (int j = 0; j < p; ++j) {
      const std::uint64_t* bj = bounds_row(j);
      const std::uint64_t cnt = bj[r + 1] - bj[r];
      std::memcpy(rt.pay_result[rr].data() + pos, rt.pay(0, j).data() + bj[r],
                  cnt * sizeof(keys::Payload));
      pos += cnt;
    }
  }

  // Phase 5: local sort of the received run.
  ctx.phase("local sort 2");
  tmp.resize(total);
  pay_tmp.resize(paired ? total : 0);
  charged_local_sort(ctx, alg, paired, out,
                     paired ? std::span<keys::Payload>(rt.pay_result[rr])
                            : std::span<keys::Payload>(),
                     tmp, pay_tmp, spec.radix_bits, spec.kernel_backend, ws);
  ctx.phase("barrier");
  rt.barrier(ctx);
}

}  // namespace dsm::sort
