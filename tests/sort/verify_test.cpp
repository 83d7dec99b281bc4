#include "sort/verify.hpp"

#include <gtest/gtest.h>

namespace dsm::sort {
namespace {

TEST(Checksum, OrderIndependent) {
  const std::vector<Key> a{1, 2, 3, 4, 5};
  const std::vector<Key> b{5, 3, 1, 2, 4};
  EXPECT_EQ(checksum_of(a), checksum_of(b));
}

TEST(Checksum, DetectsChangedElement) {
  const std::vector<Key> a{1, 2, 3};
  const std::vector<Key> b{1, 2, 4};
  EXPECT_NE(checksum_of(a), checksum_of(b));
}

TEST(Checksum, DetectsDuplicationSwap) {
  // {2,2,4} vs {1,3,4} have equal sums; sum of squares differs.
  const std::vector<Key> a{2, 2, 4};
  const std::vector<Key> b{1, 3, 4};
  EXPECT_EQ(checksum_of(a).sum, checksum_of(b).sum);
  EXPECT_NE(checksum_of(a), checksum_of(b));
}

TEST(Checksum, CombineEqualsWhole) {
  const std::vector<Key> all{9, 8, 7, 6, 5};
  const std::vector<Key> lo{9, 8};
  const std::vector<Key> hi{7, 6, 5};
  EXPECT_EQ(combine(checksum_of(lo), checksum_of(hi)), checksum_of(all));
}

TEST(Checksum, EmptyIsIdentity) {
  const std::vector<Key> a{1, 2};
  EXPECT_EQ(combine(checksum_of(a), Checksum{}), checksum_of(a));
}

TEST(RunsSorted, AcceptsSortedConcatenation) {
  const std::vector<Key> r1{1, 2, 3};
  const std::vector<Key> r2{3, 4};
  const std::vector<Key> r3{};
  const std::vector<Key> r4{5};
  const std::vector<std::span<const Key>> runs{r1, r2, r3, r4};
  EXPECT_TRUE(runs_sorted(runs));
}

TEST(RunsSorted, RejectsDescentWithinRun) {
  const std::vector<Key> r1{1, 3, 2};
  const std::vector<std::span<const Key>> runs{r1};
  EXPECT_FALSE(runs_sorted(runs));
}

TEST(RunsSorted, RejectsDescentAcrossRuns) {
  const std::vector<Key> r1{1, 5};
  const std::vector<Key> r2{4, 6};
  const std::vector<std::span<const Key>> runs{r1, r2};
  EXPECT_FALSE(runs_sorted(runs));
}

TEST(RunsSorted, EmptyIsSorted) {
  EXPECT_TRUE(runs_sorted({}));
}

TEST(RunDigest, OneSweepAgreesWithTheSeparateChecks) {
  const std::vector<Key> r1{1, 2, 2};
  const std::vector<Key> r2{};
  const std::vector<Key> r3{2, 7};
  const std::vector<std::span<const Key>> runs{r1, r2, r3};
  const RunDigest d = digest_runs(runs);
  EXPECT_TRUE(d.sorted);
  EXPECT_EQ(d.keys, checksum_of(std::vector<Key>{1, 2, 2, 2, 7}));
  // FNV-1a over the keys in output order, split across runs or not.
  std::uint64_t h = 1469598103934665603ull;
  for (const Key k : {1u, 2u, 2u, 2u, 7u}) h = (h ^ k) * 1099511628211ull;
  EXPECT_EQ(d.order_hash, h);
  const std::vector<Key> whole{1, 2, 2, 2, 7};
  EXPECT_EQ(digest_runs(std::vector<std::span<const Key>>{whole}).order_hash,
            h);

  const std::vector<Key> down{3, 1};
  const std::vector<Key> up{1, 3};
  const RunDigest bad = digest_runs(std::vector<std::span<const Key>>{down});
  EXPECT_FALSE(bad.sorted);
  EXPECT_NE(bad.order_hash,
            digest_runs(std::vector<std::span<const Key>>{up}).order_hash);
}

TEST(RunDigest, PairedChecksStabilityAndPairing) {
  const std::vector<Key> keys{4, 4, 9};
  const std::vector<keys::Payload> pays{0, 2, 1};
  const std::vector<std::span<const Key>> runs{keys};
  const RunDigest d = digest_runs(
      runs, std::vector<std::span<const keys::Payload>>{pays});
  EXPECT_TRUE(d.sorted);
  EXPECT_TRUE(d.stable);
  EXPECT_EQ(d.pairs, pair_fingerprint(keys, pays));

  // Equal keys whose payloads descend: unstable.
  const std::vector<keys::Payload> swapped{2, 0, 1};
  EXPECT_FALSE(digest_runs(runs,
                           std::vector<std::span<const keys::Payload>>{swapped})
                   .stable);
  // Same payload multiset re-matched to other keys: fingerprint moves.
  const std::vector<keys::Payload> rematched{0, 1, 2};
  EXPECT_NE(digest_runs(runs,
                        std::vector<std::span<const keys::Payload>>{rematched})
                .pairs,
            d.pairs);
}

TEST(ExactMultiset, EqualAndUnequal) {
  const std::vector<Key> a{3, 1, 2, 2};
  const std::vector<Key> b{2, 2, 1, 3};
  const std::vector<Key> c{2, 1, 1, 3};
  EXPECT_TRUE(exact_multiset_equal(a, b));
  EXPECT_FALSE(exact_multiset_equal(a, c));
  EXPECT_FALSE(exact_multiset_equal(a, std::vector<Key>{1, 2, 3}));
}

}  // namespace
}  // namespace dsm::sort
