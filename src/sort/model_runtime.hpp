// The algorithm x programming-model seam.
//
// The paper's three models differ in only a few places (§3.1-3.2,
// §4.2.1): how the global histogram or splitter set is formed, how keys
// are permuted and redistributed, and what a barrier costs. A
// ModelRuntime owns everything else a sort needs on the model side —
// partition storage (shared arrays for CC-SAS, private partitions for
// MPI, a symmetric heap for SHMEM), the key-generation target, the kv32
// payload lanes and the output runs — and exposes only those
// model-specific steps. One rank body per algorithm family runs on top:
//
//   radix_rank   LSD radix sort (§3.1): local histogram -> histogram
//                collective -> permute/exchange, once per digit.
//   sample_rank  the sample-sort skeleton (§3.2): local sort -> sampling
//                -> splitter collective -> partition -> exchange -> local
//                sort. Algo::kSample, kMsdRadix and kMergesort share it
//                and differ only in their LocalSort.
//
// The runtimes (model_runtime.cpp):
//   CC-SAS      BucketScan prefix tree; direct temporally-scattered remote
//               writes, or with `buffered` (CC-SAS-NEW) local staging then
//               contiguous block copies; grouped splitter collectors;
//               remote reads in the sample exchange.
//   MPI         allgathered histograms; one message per contiguous chunk
//               (or one coalesced message per destination, ablation).
//   SHMEM       fcollected histograms; receiver-initiated gets from a
//               symmetric staging buffer (or sender puts, ablation).
//
// Every rank's charges are issued in a fixed order, so virtual times are
// deterministic and bit-identical across engines and kernel backends.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "keys/record.hpp"
#include "sas/shared_array.hpp"
#include "sim/proc.hpp"
#include "sim/team.hpp"
#include "sort/kernels.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {

/// Which charged local sort the sample skeleton's two sorting phases run:
/// the only point where Algo::kSample, kMsdRadix and kMergesort differ.
enum class LocalSort {
  kLsd,    // seq_radix.hpp (Algo::kSample)
  kMsd,    // msd_radix.hpp (Algo::kMsdRadix)
  kMerge,  // merge_sort.hpp (Algo::kMergesort)
};

/// A splitter carries its value and the rank that contributed the sample
/// — ties on the value are broken by source rank (the regular-sampling
/// duplicate-handling of Li et al. [13]), which keeps duplicate-heavy
/// inputs (the paper's `zero` distribution) load balanced.
struct Splitter {
  Key value = 0;
  int src = 0;
};

/// One rank's radix-sort state, hoisted out of the pass loop so a pass
/// allocates nothing.
struct RadixRank {
  RadixRank(int radix_bits, bool paired);

  int pass = 0;
  int passes = 0;
  /// Storage arrays holding this pass's input and output (they toggle).
  int in() const { return pass % 2; }
  int out() const { return 1 - pass % 2; }
  bool last_pass() const { return pass + 1 == passes; }

  std::uint64_t active = 0;  // nonzero buckets of `hist`
  std::vector<std::uint64_t> hist, rank_prefix, global_start, local_prefix,
      cursor;
  std::vector<std::uint64_t> mirror;  // kv32: cursor snapshot for the
                                      // payload replay
  RadixWorkspace ws;                  // kernel scratch, reused per pass

  std::vector<std::uint64_t> all_hist;  // MPI/SHMEM: p x B histograms
};

/// One rank's sample-sort state carried between the skeleton's phases.
struct SampleRank {
  std::span<Key> mine;                // this rank's sorted partition
  std::vector<Key> samples;           // this rank's sample_count samples
  std::vector<Splitter> splitters;    // p - 1, identical on every rank
  std::vector<std::uint64_t> bounds;  // p + 1 boundaries of `mine`
  std::vector<std::uint64_t> all_bounds;  // MPI/SHMEM: p x (p + 1)
};

class ModelRuntime {
 public:
  virtual ~ModelRuntime() = default;
  ModelRuntime(const ModelRuntime&) = delete;
  ModelRuntime& operator=(const ModelRuntime&) = delete;

  const SortSpec& spec() const { return spec_; }
  const sas::HomeMap& homes() const { return homes_; }
  bool paired() const { return !pay_.empty(); }

  /// Rank r's partition of storage array `a`. Array 0 is the generated
  /// input; radix sort toggles between arrays 0 and 1 and stages in 2.
  std::span<Key> part(int a, int r) const {
    return {base_[index(a, r)], homes_.count_of(r)};
  }
  /// The kv32 payload lane mirroring part(a, r) (empty for u32).
  std::span<keys::Payload> pay(int a, int r) {
    if (!paired()) return {};
    return std::span<keys::Payload>(pay_[static_cast<std::size_t>(a)])
        .subspan(homes_.begin_of(r), homes_.count_of(r));
  }

  /// Label every input record with its global index (the canonical kv32
  /// payload) and return the input pair fingerprint; 0 for u32.
  std::uint64_t label_payloads();

  /// The sorted output: key runs whose concatenation is the sorted
  /// sequence, and their payload lanes (empty for u32). Valid after the
  /// rank bodies have returned.
  struct Runs {
    std::vector<std::span<const Key>> keys;
    std::vector<std::span<const keys::Payload>> pays;
  };
  Runs output() const;

  /// Radix passes run (set by radix_rank; identical on every rank).
  std::atomic<int> passes_used{-1};
  /// Sample sort's output: rank r's received and sorted run.
  std::vector<std::vector<Key>> result;
  std::vector<std::vector<keys::Payload>> pay_result;

  // ---- The model-specific steps. Collective: every rank calls each. ----

  /// Global maximum of one key per rank.
  virtual Key max_reduce(sim::ProcContext& ctx, Key local) = 0;
  /// The model's barrier.
  virtual void barrier(sim::ProcContext& ctx) = 0;

  /// Radix "global histogram": from `s.hist`, fill `s.rank_prefix` (lower
  /// ranks' counts per bucket) and `s.global_start` (bucket starts).
  virtual void histogram_collective(sim::ProcContext& ctx, RadixRank& s) = 0;
  /// Radix "permutation" and whatever completes the pass: move part(in)
  /// into its global order in part(out).
  virtual void radix_permute(sim::ProcContext& ctx, RadixRank& s) = 0;

  /// Publish `s.samples` where the splitter collective reads them (the
  /// "sampling" phase's tail). Message models publish in the collective.
  virtual void share_samples(sim::ProcContext& /*ctx*/, SampleRank& /*s*/) {}
  /// Sample "splitters": fill `s.splitters` from every rank's samples.
  virtual void splitter_collective(sim::ProcContext& ctx, SampleRank& s) = 0;
  /// Sample "partition" tail: publish `s.bounds`; returns every rank's
  /// boundaries, p rows of p + 1.
  virtual std::span<const std::uint64_t> bounds_collective(
      sim::ProcContext& ctx, SampleRank& s) = 0;
  /// Sample "redistribution": fill result[r] (sized by the caller) with
  /// every rank's keys destined here, in source-rank order. (The caller
  /// pulls the kv32 payloads; they are host mirrors.)
  virtual void sample_exchange(sim::ProcContext& ctx, SampleRank& s,
                               std::span<const std::uint64_t> all_bounds) = 0;

 protected:
  ModelRuntime(const SortSpec& spec, int arrays);

  /// Where radix sort's output sits once every pass has run (default:
  /// array 0, one run per rank).
  virtual Runs radix_output() const;

  std::size_t index(int a, int r) const {
    return static_cast<std::size_t>(a) *
               static_cast<std::size_t>(homes_.nprocs()) +
           static_cast<std::size_t>(r);
  }
  /// Back every array with one n-key vector partitioned by homes().
  void use_flat_storage();
  Key* flat(int a) const { return base_[index(a, 0)]; }

  /// Charged helpers shared by the radix steps.
  void stage_locally(sim::ProcContext& ctx, RadixRank& s);
  void copy_back(sim::ProcContext& ctx, RadixRank& s);

  const SortSpec& spec_;
  const sas::HomeMap homes_;
  const int arrays_;
  std::vector<Key*> base_;  // [array][rank] partition starts
  std::vector<std::vector<keys::Payload>> pay_;  // [array], n each; kv32

 private:
  std::vector<std::vector<Key>> flat_;
};

/// The runtime for spec.model, with storage sized for spec.algo's family.
std::unique_ptr<ModelRuntime> make_runtime(const SortSpec& spec,
                                           sim::SimTeam& team);

/// The rank bodies: call from every rank inside SimTeam::run.
void radix_rank(sim::ProcContext& ctx, ModelRuntime& rt);
void sample_rank(sim::ProcContext& ctx, ModelRuntime& rt);

}  // namespace dsm::sort
