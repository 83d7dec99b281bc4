#include "sim/team.hpp"

#include <algorithm>

#include "common/team.hpp"

namespace dsm::sim {

SimTeam::SimTeam(int nprocs, const machine::MachineParams& params)
    : cost_(params, nprocs),
      barrier_(nprocs),
      clocks_(static_cast<std::size_t>(nprocs)),
      phase_logs_(static_cast<std::size_t>(nprocs)),
      trace_logs_(static_cast<std::size_t>(nprocs)),
      deposits_(static_cast<std::size_t>(nprocs)) {
  scratch_transfers_.reserve(static_cast<std::size_t>(nprocs));
  scratch_traffic_.reserve(static_cast<std::size_t>(nprocs));
  scratch_entries_.reserve(static_cast<std::size_t>(nprocs));
  scratch_overlaps_.reserve(static_cast<std::size_t>(nprocs));
}

void SimTeam::run(const std::function<void(ProcContext&)>& body) {
  DSM_REQUIRE(!barrier_.poisoned(),
              "team was poisoned by an earlier failure; create a new team");
  run_spmd(nprocs(), [&](int rank) {
    ProcContext ctx(*this, rank,
                    clocks_[static_cast<std::size_t>(rank)].value, cost_);
    try {
      body(ctx);
    } catch (...) {
      barrier_.poison();  // wake any ranks parked in collectives
      throw;
    }
  });
}

void SimTeam::reset_clocks() {
  for (auto& c : clocks_) c.value.reset();
  for (auto& l : phase_logs_) l.value.clear();
  for (auto& t : trace_logs_) t.value.clear();
  pending_quiescence_ns_ = 0;
}

const std::vector<TraceEvent>& SimTeam::trace_of(int rank) const {
  DSM_REQUIRE(rank >= 0 && rank < nprocs(), "rank out of range");
  return trace_logs_[static_cast<std::size_t>(rank)].value.events();
}

std::string SimTeam::trace_json() const {
  std::size_t events = 0;
  for (int r = 0; r < nprocs(); ++r) events += trace_of(r).size();
  std::string out;
  out.reserve(events * kTraceJsonBytesPerEvent);
  for (int r = 0; r < nprocs(); ++r) {
    append_trace_json(out, r, trace_of(r));
  }
  return out;
}

void SimTeam::trace_event(int rank, TraceEvent::Kind kind, double start_ns,
                          double end_ns, std::uint64_t transfers,
                          std::uint64_t bytes) {
  if (!tracing_) return;
  trace_logs_[static_cast<std::size_t>(rank)].value.record(
      TraceEvent{kind, start_ns, end_ns, transfers, bytes});
}

void SimTeam::record_phase(int rank, std::string name) {
  DSM_REQUIRE(rank >= 0 && rank < nprocs(), "rank out of range");
  const auto r = static_cast<std::size_t>(rank);
  if (phase_hook_) {
    // Fire before recording: an aborting hook (injected fault, deadline,
    // cancellation) leaves the log at the last completed phase.
    phase_hook_(rank, name.c_str(),
                clocks_[r].value.breakdown().total_ns());
  }
  phase_logs_[r].value.mark(std::move(name), clocks_[r].value.breakdown());
}

std::vector<std::pair<std::string, Breakdown>> SimTeam::phases_of(
    int rank) const {
  DSM_REQUIRE(rank >= 0 && rank < nprocs(), "rank out of range");
  const auto r = static_cast<std::size_t>(rank);
  return phase_logs_[r].value.totals(clocks_[r].value.breakdown());
}

std::vector<std::pair<std::string, Breakdown>> SimTeam::mean_phase_report()
    const {
  std::vector<std::vector<std::pair<std::string, Breakdown>>> ranks;
  ranks.reserve(static_cast<std::size_t>(nprocs()));
  for (int r = 0; r < nprocs(); ++r) ranks.push_back(phases_of(r));
  return mean_phases(ranks);
}

Breakdown SimTeam::breakdown_of(int rank) const {
  DSM_REQUIRE(rank >= 0 && rank < nprocs(), "rank out of range");
  return clocks_[static_cast<std::size_t>(rank)].value.breakdown();
}

double SimTeam::elapsed_ns() const {
  double best = 0;
  for (const auto& c : clocks_) best = std::max(best, c.value.now_ns());
  return best;
}

void SimTeam::vbarrier(ProcContext& ctx) {
  const double entry = ctx.clock().now_ns();
  const double release = reconcile<double, double>(
      ctx, entry, [this](std::span<const double* const> entries) {
        double mx = pending_quiescence_ns_;
        for (const double* e : entries) mx = std::max(mx, *e);
        pending_quiescence_ns_ = 0;
        return std::vector<double>(entries.size(), mx);
      });
  ctx.clock().advance_to(release, Cat::kSync);
  trace_event(ctx.rank(), TraceEvent::Kind::kBarrier, entry, release, 0, 0);
}

void SimTeam::apply_outcome(ProcContext& ctx, const ProcOutcome& o) {
  ctx.clock().charge(Cat::kRMem, o.rmem_ns);
  ctx.clock().charge(Cat::kSync, o.sync_ns);
  // Absorb any rounding residue so every clock lands exactly on the
  // reconciled end time.
  ctx.clock().advance_to(o.end_ns, Cat::kSync);
}

void SimTeam::gather_epoch_inputs(std::span<const EpochIn* const> ins) {
  scratch_transfers_.clear();
  scratch_traffic_.clear();
  scratch_entries_.clear();
  scratch_overlaps_.clear();
  for (const EpochIn* i : ins) {
    scratch_transfers_.push_back(i->transfers);
    scratch_traffic_.push_back(i->traffic);
    scratch_entries_.push_back(i->entry_ns);
    scratch_overlaps_.push_back(i->overlap_ns);
  }
}

void SimTeam::two_sided_epoch(ProcContext& ctx,
                              const std::vector<Transfer>& sends,
                              const TwoSidedConfig& cfg) {
  std::uint64_t bytes = 0;
  for (const Transfer& t : sends) bytes += t.bytes;
  const std::uint64_t count = sends.size();
  const EpochIn in{&sends, nullptr, ctx.clock().now_ns()};
  const ProcOutcome out = reconcile<EpochIn, ProcOutcome>(
      ctx, in, [&, this](std::span<const EpochIn* const> ins) {
        gather_epoch_inputs(ins);
        EpochResult res = simulate_two_sided(cost_, scratch_transfers_,
                                             scratch_entries_, cfg);
        pending_quiescence_ns_ =
            std::max(pending_quiescence_ns_, res.quiescence_ns);
        return std::move(res.procs);
      });
  trace_event(ctx.rank(), TraceEvent::Kind::kTwoSided, in.entry_ns, out.end_ns,
              count, bytes);
  apply_outcome(ctx, out);
}

void SimTeam::get_epoch(ProcContext& ctx, const std::vector<Transfer>& gets,
                        const OneSidedConfig& cfg) {
  std::uint64_t bytes = 0;
  for (const Transfer& t : gets) bytes += t.bytes;
  const std::uint64_t count = gets.size();
  const EpochIn in{&gets, nullptr, ctx.clock().now_ns()};
  const ProcOutcome out = reconcile<EpochIn, ProcOutcome>(
      ctx, in, [&, this](std::span<const EpochIn* const> ins) {
        gather_epoch_inputs(ins);
        EpochResult res =
            simulate_gets(cost_, scratch_transfers_, scratch_entries_, cfg);
        pending_quiescence_ns_ =
            std::max(pending_quiescence_ns_, res.quiescence_ns);
        return std::move(res.procs);
      });
  trace_event(ctx.rank(), TraceEvent::Kind::kGet, in.entry_ns, out.end_ns,
              count, bytes);
  apply_outcome(ctx, out);
}

void SimTeam::put_epoch(ProcContext& ctx, const std::vector<Transfer>& puts,
                        const OneSidedConfig& cfg) {
  std::uint64_t bytes = 0;
  for (const Transfer& t : puts) bytes += t.bytes;
  const std::uint64_t count = puts.size();
  const EpochIn in{&puts, nullptr, ctx.clock().now_ns()};
  const ProcOutcome out = reconcile<EpochIn, ProcOutcome>(
      ctx, in, [&, this](std::span<const EpochIn* const> ins) {
        gather_epoch_inputs(ins);
        EpochResult res =
            simulate_puts(cost_, scratch_transfers_, scratch_entries_, cfg);
        pending_quiescence_ns_ =
            std::max(pending_quiescence_ns_, res.quiescence_ns);
        return std::move(res.procs);
      });
  trace_event(ctx.rank(), TraceEvent::Kind::kPut, in.entry_ns, out.end_ns,
              count, bytes);
  apply_outcome(ctx, out);
}

void SimTeam::scattered_write_epoch(
    ProcContext& ctx, const std::vector<ScatteredTraffic>& traffic,
    double overlap_ns) {
  const EpochIn in{nullptr, &traffic, ctx.clock().now_ns(), overlap_ns};
  const double rmem = reconcile<EpochIn, double>(
      ctx, in, [this](std::span<const EpochIn* const> ins) {
        gather_epoch_inputs(ins);
        return inflate_scattered_writes(cost_, static_cast<int>(ins.size()),
                                        scratch_traffic_, scratch_overlaps_);
      });
  std::uint64_t lines = 0;
  for (const ScatteredTraffic& t : traffic) lines += t.lines;
  const double entry = ctx.clock().now_ns();
  ctx.clock().charge(Cat::kRMem, rmem);
  trace_event(ctx.rank(), TraceEvent::Kind::kScatteredWrite, entry,
              ctx.clock().now_ns(), traffic.size(), lines * 128);
  // Remote lines written stay dirty in remote caches/memory; no explicit
  // quiescence beyond the charge itself (the write is synchronous per line).
}

}  // namespace dsm::sim
