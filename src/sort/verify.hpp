// Result verification: every parallel sort must produce a globally sorted
// permutation of its input. Checks are O(n) (multiset checksums +
// sortedness) so they run even at 256M keys; tests additionally use the
// exact O(n log n) multiset comparison on small inputs.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "keys/record.hpp"

namespace dsm::sort {

/// Order-independent multiset fingerprint.
struct Checksum {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;    // wraps mod 2^64
  std::uint64_t xor_ = 0;
  std::uint64_t sum_sq = 0; // wraps mod 2^64

  friend bool operator==(const Checksum&, const Checksum&) = default;
};

Checksum checksum_of(std::span<const Key> keys);
Checksum combine(const Checksum& a, const Checksum& b);

/// True if the concatenation of `runs` (in order) is ascending.
bool runs_sorted(std::span<const std::span<const Key>> runs);

/// Exact multiset equality (sorts copies; test-only sizes).
bool exact_multiset_equal(std::span<const Key> a, std::span<const Key> b);

/// Order-independent fingerprint of the (key, payload) pair multiset —
/// each pair mixed through a 64-bit finalizer before the commutative
/// folds, so swapping payloads between equal-position pairs changes it.
std::uint64_t pair_fingerprint(std::span<const Key> keys,
                               std::span<const keys::Payload> payloads);

/// Everything a finished sort checks about its output, gathered in one
/// sweep over it.
struct RunDigest {
  Checksum keys;       // multiset checksum of the output keys
  bool sorted = true;  // the concatenation of the runs ascends
  /// Order-DEPENDENT fingerprint of the concatenated runs (FNV-1a over the
  /// keys in output order). The complement of the multiset Checksum: the
  /// Checksum proves a worker's result is a permutation of the input it
  /// was asked to sort; this hash pins *which* permutation, so the master
  /// can tell two honest hedged results agree without shipping the keys
  /// back over the wire (DESIGN.md §12).
  std::uint64_t order_hash = 0;
  /// kv32 only (payload runs given): the pair_fingerprint of the output
  /// (key, payload) multiset, and whether payloads ascend within every run
  /// of equal keys. Since sorts assign payload = global input index, that
  /// is exactly LSD radix stability (and sample sort's deterministic
  /// duplicate placement).
  std::uint64_t pairs = 0;
  bool stable = true;
};

/// Digest `key_runs` and, when nonempty, the payload lanes aligned with
/// them (one lane per run, of the run's size).
RunDigest digest_runs(
    std::span<const std::span<const Key>> key_runs,
    std::span<const std::span<const keys::Payload>> payload_runs = {});

}  // namespace dsm::sort
