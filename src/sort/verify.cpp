#include "sort/verify.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dsm::sort {

Checksum checksum_of(std::span<const Key> keys) {
  Checksum c;
  c.count = keys.size();
  for (const Key k : keys) {
    const auto v = static_cast<std::uint64_t>(k);
    c.sum += v;
    c.xor_ ^= v * 0x9e3779b97f4a7c15ull;  // spread duplicates across bits
    c.sum_sq += v * v;
  }
  return c;
}

Checksum combine(const Checksum& a, const Checksum& b) {
  return Checksum{a.count + b.count, a.sum + b.sum, a.xor_ ^ b.xor_,
                  a.sum_sq + b.sum_sq};
}

bool runs_sorted(std::span<const std::span<const Key>> runs) {
  bool have_prev = false;
  Key prev = 0;
  for (const auto& run : runs) {
    for (const Key k : run) {
      if (have_prev && k < prev) return false;
      prev = k;
      have_prev = true;
    }
  }
  return true;
}

bool exact_multiset_equal(std::span<const Key> a, std::span<const Key> b) {
  if (a.size() != b.size()) return false;
  std::vector<Key> sa(a.begin(), a.end());
  std::vector<Key> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

namespace {

/// SplitMix64 finalizer: mixes the packed pair so the commutative folds
/// below distinguish re-matched pairings, not just value multisets.
std::uint64_t mix_pair(Key k, keys::Payload p) {
  std::uint64_t z =
      (static_cast<std::uint64_t>(k) << 32) | static_cast<std::uint64_t>(p);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t pair_fingerprint(std::span<const Key> keys,
                               std::span<const keys::Payload> payloads) {
  std::uint64_t fp = keys.size() * 0x9e3779b97f4a7c15ull;
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < n; ++i) {
    fp += mix_pair(keys[i], payloads[i]);  // commutative: order-independent
  }
  return fp;
}

RunDigest digest_runs(
    std::span<const std::span<const Key>> key_runs,
    std::span<const std::span<const keys::Payload>> payload_runs) {
  const bool paired = !payload_runs.empty();
  DSM_REQUIRE(!paired || payload_runs.size() == key_runs.size(),
              "one payload lane per key run");
  RunDigest d;
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a, one key per step
  Key prev = 0;  // Key is unsigned, so the first compare is never a miss
  keys::Payload prev_pay = 0;
  bool first = true;
  for (std::size_t r = 0; r < key_runs.size(); ++r) {
    const std::span<const Key> run = key_runs[r];
    d.keys.count += run.size();
    const std::span<const keys::Payload> pays =
        paired ? payload_runs[r] : std::span<const keys::Payload>();
    DSM_REQUIRE(!paired || pays.size() == run.size(),
                "payload lane must mirror its key run");
    for (std::size_t i = 0; i < run.size(); ++i) {
      const Key k = run[i];
      const auto v = static_cast<std::uint64_t>(k);
      d.keys.sum += v;
      d.keys.xor_ ^= v * 0x9e3779b97f4a7c15ull;
      d.keys.sum_sq += v * v;
      h = (h ^ v) * 1099511628211ull;
      if (paired) {
        const keys::Payload p = pays[i];
        d.pairs += mix_pair(k, p);
        if (!first && k == prev) d.stable = d.stable && p > prev_pay;
        prev_pay = p;
      }
      d.sorted = d.sorted && k >= prev;
      prev = k;
      first = false;
    }
  }
  d.order_hash = h;
  if (paired) d.pairs += d.keys.count * 0x9e3779b97f4a7c15ull;
  return d;
}

}  // namespace dsm::sort
