// Unified driver for every {algorithm x programming model} combination in
// the paper: sets up the model-appropriate storage (shared arrays for
// CC-SAS, private partitions for MPI, a symmetric heap for SHMEM),
// generates the requested key distribution, runs the collective sort on a
// SimTeam, verifies the result, and returns virtual-time breakdowns.
//
// This is the library's main public entry point; examples and the bench
// harnesses drive everything through SortSpec. Two call shapes:
//
//   * try_run_sort(spec) -> Result<SortResult> — the v2 non-throwing
//     surface: every failure is a typed Status (invalid argument,
//     cancellation, injected fault, ...) the caller can branch on.
//   * run_sort(spec) -> SortResult — thin throwing wrapper (StatusError).
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <vector>

#include <string>
#include <utility>

#include "common/cli.hpp"
#include "common/status.hpp"
#include "keys/distributions.hpp"
#include "keys/record.hpp"
#include "machine/params.hpp"
#include "msg/transport.hpp"
#include "sim/clock.hpp"
#include "sort/kernels.hpp"
#include "sort/verify.hpp"

namespace dsm::sort {

enum class Algo {
  kRadix,      // LSD radix sort (the paper's §3.1)
  kSample,     // single-level sample sort (§3.2), LSD local sorts
  kMsdRadix,   // sample skeleton, MSD in-place local sorts (msd_radix.hpp)
  kMergesort,  // sample skeleton, k-way mergesort local sorts (merge_sort.hpp)
};
enum class Model { kCcSas, kCcSasNew, kMpi, kShmem };

/// Canonical registry tables (see common/cli.hpp). The names are wire
/// format: journals and replay files carry them. The planner's cell
/// matrix and the predictor's ranked menu are derived from these tables,
/// so adding an algorithm here grows both automatically.
inline constexpr EnumEntry<Algo> kAlgoNames[] = {
    {Algo::kRadix, "radix"},
    {Algo::kSample, "sample"},
    {Algo::kMsdRadix, "msd"},
    {Algo::kMergesort, "merge"},
};
inline constexpr EnumEntry<Model> kModelNames[] = {
    {Model::kCcSas, "CC-SAS"},
    {Model::kCcSasNew, "CC-SAS-NEW"},
    {Model::kMpi, "MPI"},
    {Model::kShmem, "SHMEM"},
};

const char* algo_name(Algo a);
const char* model_name(Model m);
Algo algo_from_name(const std::string& name);
Model model_from_name(const std::string& name);
/// Typed parses for the v2 surface: kInvalidArgument listing the accepted
/// names on failure.
Result<Algo> try_algo_from_name(const std::string& name);
Result<Model> try_model_from_name(const std::string& name);

/// The feasibility rule shared by spec validation, the predictor's
/// ranked menu, and the planner's cell filter: CC-SAS-NEW is the paper's
/// radix-sort restructuring (it reorganises the radix permutation's
/// remote traffic) and exists for no other algorithm.
constexpr bool algo_supports_model(Algo a, Model m) {
  return m != Model::kCcSasNew || a == Algo::kRadix;
}

/// True for the algorithms whose menu entry has a meaningful radix_bits
/// knob (LSD local sorts / run generation). MSD radix recurses on fixed
/// byte digits, so its planner cells carry radix_bits = 8 verbatim.
constexpr bool algo_uses_radix_bits(Algo a) { return a != Algo::kMsdRadix; }

/// Cooperative cancellation flag. The owner arms it from any thread; the
/// sort polls it at every checkpoint and phase mark and unwinds with
/// StatusCode::kCancelled. Cancellation is cooperative: the sort stops at
/// the next checkpoint, never mid-kernel.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Run-time observation and control points threaded through run_sort.
struct SortHooks {
  /// Called at named checkpoints of the run: "keygen" before input
  /// generation, every algorithm phase mark (the paper's phase vocabulary:
  /// "local histogram", "permutation", "local sort", ...) as rank 0
  /// reaches it with that rank's virtual time so far, and "verify" before
  /// result verification. Throwing aborts the sort cleanly (the team
  /// poison machinery unwinds every rank) — this is the fault-injection
  /// and deadline-enforcement hook.
  std::function<void(const char* site, double virtual_ns)> on_site;

  /// Polled at the same checkpoints; when cancelled, the sort unwinds
  /// with StatusCode::kCancelled. Borrowed, not owned.
  const CancelToken* cancel = nullptr;
};

struct SortSpec {
  Algo algo = Algo::kRadix;
  Model model = Model::kShmem;  // kCcSasNew is radix-only
  int nprocs = 1;
  Index n = Index{1} << 20;
  int radix_bits = 8;
  keys::Dist dist = keys::Dist::kGauss;
  std::uint64_t seed = 1;

  /// Record type being sorted (DESIGN.md §11). kU32 is the paper's
  /// workload: bare 4-byte keys. kKeyPayload32 attaches a 32-bit payload
  /// (the key's global input index) that travels with its key through
  /// every permutation — sorted output is stable, and the payload lane
  /// lets tests prove it. Charged virtual time is a pure function of the
  /// key stream, so kv32 runs report bit-identical elapsed_ns to u32.
  /// Default honours DSMSORT_RECORD.
  keys::RecordType record = keys::default_record_type();

  /// Machine configuration. Default: Origin 2000 with the page size the
  /// paper used for this data-set size.
  std::optional<machine::MachineParams> machine;

  /// Host kernel backend for the radix histogram/permute loops. It is
  /// charge-invariant: virtual times, figure tables and service replay
  /// output are bit-identical across backends (DESIGN.md §9). Default:
  /// optimized, or DSMSORT_KERNELS / --kernels override.
  KernelBackend kernel_backend = default_kernel_backend();

  /// Model-specific ablation knobs, grouped: every member has the paper's
  /// default, so ablation studies override exactly the knob they vary.
  struct Ablations {
    msg::Impl mpi_impl = msg::Impl::kDirect;  // NEW vs SGI transport
    bool mpi_chunk_messages = true;           // per-chunk vs per-destination
    bool shmem_use_put = false;               // get (paper) vs put
    int sample_count = 128;                   // samples per process
    int sample_group_size = 32;  // CC-SAS splitter groups (paper: 32)
    /// Radix only (§3.1): detect the global maximum key collectively and
    /// run only the passes its bit width needs.
    bool detect_max_key = false;
  };
  Ablations ablations;

  /// Fault-injection / deadline / cancellation hooks (see SortHooks).
  SortHooks hooks;

  /// When nonempty, write a JSON-lines event trace of the run (barriers
  /// and communication epochs per simulated processor) to this path.
  std::string trace_json_path;

  bool verify = true;

  /// When set, SortResult.output holds the fully sorted key sequence
  /// (concatenation of all runs) — for exact-equality testing; costs one
  /// extra copy of the data.
  bool keep_output = false;

  /// The machine this spec resolves to.
  machine::MachineParams resolved_machine() const;

  /// Every violated constraint, joined into one kInvalidArgument status
  /// (OK when the spec is valid) — one round trip fixes all mistakes.
  Status validate_status() const;
  /// Throwing wrapper: raises StatusError(validate_status()).
  void validate() const;
};

struct SortResult {
  double elapsed_ns = 0;                  // max over processes
  std::vector<sim::Breakdown> per_proc;   // one per simulated process
  std::vector<Index> run_sizes;           // output keys per process
  std::vector<Key> output;                // filled iff spec.keep_output
  /// Payload lane of the sorted records, aligned with `output`: filled
  /// iff spec.keep_output and the record type carries a payload.
  std::vector<keys::Payload> payload_output;
  keys::RecordType record = keys::RecordType::kU32;  // echo of spec.record
  /// Mean per-phase time attribution across processes (the paper's phase
  /// vocabulary: local/global histogram, permutation, redistribution,
  /// local sorts, splitters, barriers).
  std::vector<std::pair<std::string, sim::Breakdown>> phases;
  int passes = 0;                         // radix passes used (per local sort)
  bool verified = false;
  Index n = 0;

  /// End-to-end integrity fingerprints (DESIGN.md §12): the multiset
  /// checksum of the keys this sort actually consumed, and the
  /// order-dependent hash of the runs it produced. A cluster worker
  /// reports both so the master can verify the result against the
  /// admission-time expectation before acking.
  Checksum input_checksum;
  std::uint64_t run_hash = 0;

  double elapsed_us() const { return elapsed_ns / 1e3; }

  /// Load imbalance of the output distribution: max run / mean run
  /// (1.0 = perfectly balanced; meaningful for sample sort).
  double imbalance() const;
};

/// Run one parallel sort to completion (functionally real, virtual time).
/// Never throws for sort-level failures: invalid specs, cancellation,
/// hook-injected faults, and internal errors all return a typed Status.
Result<SortResult> try_run_sort(const SortSpec& spec);

/// Throwing wrapper around try_run_sort (raises StatusError).
SortResult run_sort(const SortSpec& spec);

/// Sequential baseline (Table 1): the instrumented radix sort on a
/// one-process team — the denominator of every speedup in the paper.
double seq_baseline_ns(Index n, keys::Dist dist, int radix_bits,
                       const machine::MachineParams& machine,
                       std::uint64_t seed = 1);

/// speedup = baseline / parallel (both in virtual ns).
double speedup(double baseline_ns, double parallel_ns);

}  // namespace dsm::sort
