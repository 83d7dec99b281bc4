// SimTeam: the SPMD launcher and collective virtual-time engine.
//
// A SimTeam owns P virtual clocks and a machine cost model, runs an SPMD
// body on P logical ranks (functional concurrency; timing is virtual), and
// provides the collective operations every programming-model runtime is
// built from:
//
//   * reconcile<In, Out>() — the fundamental primitive: every rank deposits
//     an In, the last arriver runs a single-threaded reconciliation
//     function over all deposits, and every rank picks up its Out. All
//     barrier timing, DES epochs, and error broadcasting run through it.
//   * vbarrier() — barrier whose SYNC charge is max-minus-own over virtual
//     arrival times (also enforces pending network quiescence from puts).
//   * two_sided_epoch / get_epoch / put_epoch / scattered_write_epoch —
//     apply the engines in epoch.hpp to the team's clocks.
//
// Each rank is an OS thread (run_spmd, common/team.hpp) and every
// collective is one CentralBarrier round. Virtual times do not depend on
// the host schedule: reconciliation functions are pure over the
// rank-indexed deposits, so host scheduling cannot leak into results.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/align.hpp"
#include "common/barrier.hpp"
#include "common/error.hpp"
#include "machine/cost.hpp"
#include "sim/clock.hpp"
#include "sim/epoch.hpp"
#include "sim/phases.hpp"
#include "sim/proc.hpp"
#include "sim/trace.hpp"

namespace dsm::sim {

class SimTeam {
 public:
  SimTeam(int nprocs, const machine::MachineParams& params);

  int nprocs() const { return cost_.nprocs(); }
  const machine::CostModel& cost() const { return cost_; }

  /// Run `body` on every rank (blocking). May be called multiple times;
  /// clocks accumulate across calls unless reset_clocks() is used.
  void run(const std::function<void(ProcContext&)>& body);

  void reset_clocks();

  /// Per-rank time breakdown (valid between run() calls).
  Breakdown breakdown_of(int rank) const;

  /// Mark a phase transition on `rank`'s timeline (used via
  /// ProcContext::phase()).
  void record_phase(int rank, std::string name);

  /// Observation hook fired on every phase mark with the marking rank's
  /// virtual time so far, before the mark is recorded. Throwing from the
  /// hook aborts the run like any rank failure (team poison). Used by the
  /// sort driver for fault injection, cooperative cancellation, and
  /// virtual-time deadline enforcement. The hook must be safe to call
  /// concurrently from different rank threads.
  using PhaseHook =
      std::function<void(int rank, const char* name, double virtual_ns)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  /// Per-rank phase attribution (deltas between marks; see sim/phases.hpp).
  std::vector<std::pair<std::string, Breakdown>> phases_of(int rank) const;

  /// Mean per-phase attribution across all ranks.
  std::vector<std::pair<std::string, Breakdown>> mean_phase_report() const;

  /// Enable per-rank event tracing (barriers/epochs); see sim/trace.hpp.
  void enable_tracing(bool on = true) { tracing_ = on; }
  bool tracing() const { return tracing_; }

  /// Events recorded for `rank` (empty unless tracing was enabled).
  const std::vector<TraceEvent>& trace_of(int rank) const;

  /// Whole-team trace as JSON lines, rank by rank.
  std::string trace_json() const;

  /// Max over ranks of total virtual time — the phase/sort completion time.
  double elapsed_ns() const;

  // ---- collective operations (call only from inside run bodies) ---------

  /// Deposit `in`; the last arriver runs `fn` over all deposits (indexed by
  /// rank); every rank receives fn's result for its own rank. `fn` must be
  /// the same pure function on every rank.
  template <typename In, typename Out, typename Fn>
  Out reconcile(ProcContext& ctx, const In& in, Fn fn) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    deposits_[r].value = &in;
    barrier_.arrive_and_wait([&] {
      std::vector<const In*> ins(static_cast<std::size_t>(nprocs()));
      for (std::size_t i = 0; i < ins.size(); ++i) {
        ins[i] = static_cast<const In*>(deposits_[i].value);
        DSM_CHECK(ins[i] != nullptr, "missing reconcile deposit");
      }
      auto outs = fn(std::span<const In* const>(ins));
      DSM_CHECK(outs.size() == ins.size(),
                "reconcile fn must produce one result per rank");
      result_ = std::make_shared<std::vector<Out>>(std::move(outs));
    });
    auto outs = std::static_pointer_cast<std::vector<Out>>(result_);
    return (*outs)[r];
  }

  /// Barrier with SYNC reconciliation; release time also respects network
  /// quiescence left behind by put/scattered epochs.
  void vbarrier(ProcContext& ctx);

  /// Run a two-sided message exchange epoch: `sends` are this rank's
  /// posted sends in order (data must already have been copied by the
  /// caller); timing is reconciled and charged. Acts as a full barrier for
  /// the *participants' data visibility* (physical barrier inside). The
  /// vector is borrowed for the duration of the call (zero-copy), so
  /// callers can hoist and reuse one buffer across passes.
  void two_sided_epoch(ProcContext& ctx, const std::vector<Transfer>& sends,
                       const TwoSidedConfig& cfg);

  /// Blocking-get epoch (SHMEM-style, receiver initiated).
  void get_epoch(ProcContext& ctx, const std::vector<Transfer>& gets,
                 const OneSidedConfig& cfg);

  /// Put epoch (SHMEM-style, sender initiated); leaves a pending
  /// quiescence the next vbarrier enforces.
  void put_epoch(ProcContext& ctx, const std::vector<Transfer>& puts,
                 const OneSidedConfig& cfg);

  /// CC-SAS fine-grained scattered remote write epoch: charges each
  /// writer's contention-inflated RMEM. `overlap_ns` is the computation
  /// time this writer overlaps with its stores (widens the contention
  /// window). Quiescence handled like puts.
  void scattered_write_epoch(ProcContext& ctx,
                             const std::vector<ScatteredTraffic>& traffic,
                             double overlap_ns = 0.0);

 private:
  struct EpochIn {
    const std::vector<Transfer>* transfers = nullptr;
    const std::vector<ScatteredTraffic>* traffic = nullptr;
    double entry_ns = 0;
    double overlap_ns = 0;
  };

  void apply_outcome(ProcContext& ctx, const ProcOutcome& o);

  /// Collect the rank-indexed deposits into the reusable pointer/entry
  /// scratch (zero-copy: epoch engines consume the rank vectors in place).
  void gather_epoch_inputs(std::span<const EpochIn* const> ins);

  machine::CostModel cost_;
  CentralBarrier barrier_;
  void trace_event(int rank, TraceEvent::Kind kind, double start_ns,
                   double end_ns, std::uint64_t transfers,
                   std::uint64_t bytes);

  std::vector<Padded<CategoryClock>> clocks_;
  PhaseHook phase_hook_;
  std::vector<Padded<PhaseLog>> phase_logs_;
  std::vector<Padded<TraceLog>> trace_logs_;
  bool tracing_ = false;
  std::vector<Padded<const void*>> deposits_;
  std::shared_ptr<void> result_;
  double pending_quiescence_ns_ = 0;

  // Epoch-completion scratch, reused across rounds. Only the last arriver
  // touches these, and rounds are totally ordered by the barrier, so no
  // further synchronisation is needed.
  std::vector<const std::vector<Transfer>*> scratch_transfers_;
  std::vector<const std::vector<ScatteredTraffic>*> scratch_traffic_;
  std::vector<double> scratch_entries_;
  std::vector<double> scratch_overlaps_;
};

}  // namespace dsm::sim
