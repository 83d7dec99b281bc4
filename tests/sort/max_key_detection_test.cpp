// §3.1: "The maximum key value determines how many iterations will
// actually be needed." With detect_max_key, every radix variant runs a
// collective max-reduction and executes only the passes the key width
// needs — fewer passes for small-valued keys, identical results always.
#include <gtest/gtest.h>

#include <algorithm>

#include "sort/model_runtime.hpp"
#include "sort/seq_radix.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

TEST(RadixPassesForMax, MatchesKeyWidth) {
  EXPECT_EQ(radix_passes_for_max(8, 0), 1);      // all-zero keys: one pass
  EXPECT_EQ(radix_passes_for_max(8, 255), 1);
  EXPECT_EQ(radix_passes_for_max(8, 256), 2);
  EXPECT_EQ(radix_passes_for_max(8, 65535), 2);
  EXPECT_EQ(radix_passes_for_max(8, 65536), 3);
  EXPECT_EQ(radix_passes_for_max(8, (1u << 31) - 1), 4);
  EXPECT_EQ(radix_passes_for_max(11, (1u << 31) - 1), 3);
}

// Seam harness: sort small-valued keys (< 2^16) through each model's
// runtime and check both the result and the detected pass count.
std::vector<Key> small_keys(Index n) {
  std::vector<Key> keys(n);
  keys::GenSpec gs;
  gs.n_total = n;
  gs.nprocs = 1;
  keys::generate(keys::Dist::kRandom, keys, gs);
  for (Key& k : keys) k &= 0xffffu;  // clamp to 16 bits
  return keys;
}

void expect_two_passes_for_small_keys(Model model) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = model;
  spec.nprocs = 4;
  spec.n = 10000;
  spec.radix_bits = 8;
  spec.record = keys::RecordType::kU32;
  spec.ablations.detect_max_key = true;
  const auto input = small_keys(spec.n);
  auto expect = input;
  std::sort(expect.begin(), expect.end());

  sim::SimTeam team(spec.nprocs, machine::MachineParams::origin2000());
  const auto rt = make_runtime(spec, team);
  for (int r = 0; r < spec.nprocs; ++r) {
    const auto begin = static_cast<std::ptrdiff_t>(rt->homes().begin_of(r));
    const auto end = static_cast<std::ptrdiff_t>(rt->homes().end_of(r));
    std::copy(input.begin() + begin, input.begin() + end,
              rt->part(0, r).begin());
  }
  team.run([&](sim::ProcContext& ctx) { radix_rank(ctx, *rt); });

  EXPECT_EQ(rt->passes_used.load(), 2);
  std::vector<Key> out;
  for (const auto& run : rt->output().keys) {
    out.insert(out.end(), run.begin(), run.end());
  }
  EXPECT_EQ(out, expect);
}

TEST(MaxKeyDetection, CcSasUsesTwoPassesForSmallKeys) {
  expect_two_passes_for_small_keys(Model::kCcSas);
}

TEST(MaxKeyDetection, MpiUsesTwoPassesForSmallKeys) {
  expect_two_passes_for_small_keys(Model::kMpi);
}

TEST(MaxKeyDetection, ShmemUsesTwoPassesForSmallKeys) {
  expect_two_passes_for_small_keys(Model::kShmem);
}

TEST(MaxKeyDetection, FullWidthKeysKeepFullPassCount) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kShmem;
  spec.nprocs = 4;
  spec.n = 1 << 14;
  spec.ablations.detect_max_key = true;  // gauss keys span the full 31 bits
  const SortResult res = run_sort(spec);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.passes, radix_passes(spec.radix_bits));
}

TEST(MaxKeyDetection, DetectionCostsACollective) {
  // Detection is not free: it adds a max-reduction to an otherwise
  // identical run.
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kMpi;
  spec.nprocs = 8;
  spec.n = 1 << 14;
  const double plain = run_sort(spec).elapsed_ns;
  spec.ablations.detect_max_key = true;
  const double detected = run_sort(spec).elapsed_ns;
  EXPECT_GT(detected, plain);
}

TEST(MaxKeyDetection, AllModelsVerifyThroughRunSort) {
  for (const Model m : {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                        Model::kShmem}) {
    SortSpec spec;
    spec.algo = Algo::kRadix;
    spec.model = m;
    spec.nprocs = 6;
    spec.n = 20011;
    spec.ablations.detect_max_key = true;
    EXPECT_TRUE(run_sort(spec).verified) << model_name(m);
  }
}

}  // namespace
}  // namespace dsm::sort
