// Host-machine microbenchmarks (google-benchmark, real wall time): the
// sequential radix sort kernel vs std::sort, across sizes and radix
// widths. These measure the *implementation* on the host, not the
// simulated Origin — useful for keeping the reproduction itself fast.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/bits.hpp"
#include "keys/distributions.hpp"
#include "sort/seq_radix.hpp"

namespace {

using namespace dsm;

std::vector<Key> make_keys(Index n, keys::Dist d = keys::Dist::kRandom) {
  std::vector<Key> keys(n);
  keys::GenSpec spec;
  spec.n_total = n;
  spec.nprocs = 1;
  keys::generate(d, keys, spec);
  return keys;
}

/// Both kernel backends over the same inputs: args are (n, radix_bits,
/// backend). The backends sort byte-identically (enforced by the
/// equivalence tier), so the items/s ratio per (n, radix) cell is the pure
/// host-kernel speedup.
void BM_SeqRadixSort(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const int radix = static_cast<int>(state.range(1));
  const auto backend = static_cast<sort::KernelBackend>(state.range(2));
  const auto input = make_keys(n);
  std::vector<Key> keys(n), tmp(n);
  sort::RadixWorkspace ws;
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), keys.begin());
    sort::seq_radix_sort(keys, tmp, radix, backend, ws);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetLabel(sort::kernel_backend_name(backend));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SeqRadixSort)
    ->ArgsProduct({{1 << 12, 1 << 16, 1 << 20},
                   {8, 11, 16},
                   {static_cast<int>(sort::KernelBackend::kReference),
                    static_cast<int>(sort::KernelBackend::kOptimized)}});

void BM_StdSort(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const auto input = make_keys(n);
  std::vector<Key> keys(n);
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), keys.begin());
    std::sort(keys.begin(), keys.end());
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StdSort)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_HistogramPass(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const auto keys = make_keys(n);
  std::vector<std::uint64_t> hist(256);
  for (auto _ : state) {
    std::fill(hist.begin(), hist.end(), 0);
    for (const Key k : keys) ++hist[radix_digit(k, 0, 8)];
    benchmark::DoNotOptimize(hist.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HistogramPass)->Arg(1 << 16)->Arg(1 << 20);

void BM_MultiHistogram(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  const auto backend = static_cast<sort::KernelBackend>(state.range(1));
  const auto keys = make_keys(n);
  const int passes = 4;  // radix 8 over 31-bit keys
  std::vector<std::uint64_t> pass_hist(passes * 256);
  for (auto _ : state) {
    sort::multi_histogram_kernel(backend, keys, passes, 8, pass_hist);
    benchmark::DoNotOptimize(pass_hist.data());
  }
  state.SetLabel(sort::kernel_backend_name(backend));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MultiHistogram)
    ->ArgsProduct({{1 << 16, 1 << 20},
                   {static_cast<int>(sort::KernelBackend::kReference),
                    static_cast<int>(sort::KernelBackend::kOptimized)}});

}  // namespace
