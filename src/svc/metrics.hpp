// Service metrics registry: one ordered table of named series, each
// labelled with the replay contract it belongs to.
//
// - deterministic: derived from the request stream alone (virtual times,
//   seeded fault decisions, counters in processing order). Identical
//   traffic in identical order gives byte-identical json(kDeterministic)
//   for any worker count, so it is part of the replay fingerprint, and
//   these series are the metrics part of a calibration snapshot.
// - host: the cluster tier's dispatch accounting, gray-failure counters,
//   worker gauges and dispatch->ack host latency. They depend on
//   wall-clock timing and on the worker-process count.
// - environment: disk health under degraded durability. It depends on
//   the disk fault environment, not on the request stream.
//
// Every exporter and the snapshot codec walk the table, so a series
// added to it is exported, snapshotted (when deterministic) and kept out
// of the replay fingerprint (when not) without further code.
//
// Histograms: bucket k of a log2 histogram counts values in
// [2^k, 2^(k+1)) microseconds (bucket 0 also holds [0, 1)); the retry
// histogram counts jobs by the number of failed attempts that preceded
// their final outcome. The last bucket of both is the overflow tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#include "svc/faults.hpp"
#include "svc/job.hpp"
#include "svc/queue.hpp"

namespace dsm::svc {

// X(series, section, name, scope, kind, cells), in snapshot order: the
// deterministic rows lead the table and their values are the snapshot's
// metrics payload, positionally — append new deterministic rows only
// with a snapshot format change. Typed views copy contiguous runs of
// one-cell rows, so a run's order must match its view's fields.
#define DSM_SVC_METRIC_SERIES(X)                                            \
  X(kSubmitted, kCounters, "submitted", kDeterministic, kCounter, 1)        \
  X(kAccepted, kCounters, "accepted", kDeterministic, kCounter, 1)          \
  X(kRejectedFull, kCounters, "rejected_full", kDeterministic, kCounter, 1) \
  X(kRejectedClosed, kCounters, "rejected_closed", kDeterministic,          \
    kCounter, 1)                                                            \
  X(kRejectedInvalid, kCounters, "rejected_invalid", kDeterministic,        \
    kCounter, 1)                                                            \
  X(kRejectedFault, kCounters, "rejected_fault", kDeterministic, kCounter,  \
    1)                                                                      \
  X(kRejectedDuplicate, kCounters, "rejected_duplicate", kDeterministic,    \
    kCounter, 1)                                                            \
  X(kCompleted, kCounters, "completed", kDeterministic, kCounter, 1)        \
  X(kFailed, kCounters, "failed", kDeterministic, kCounter, 1)              \
  X(kShed, kCounters, "shed", kDeterministic, kCounter, 1)                  \
  X(kDeadlineMiss, kCounters, "deadline_miss", kDeterministic, kCounter, 1) \
  X(kRetryAttempts, kCounters, "retry_attempts", kDeterministic, kCounter,  \
    1)                                                                      \
  X(kRetrySuccesses, kCounters, "retry_successes", kDeterministic,          \
    kCounter, 1)                                                            \
  X(kAudited, kPlanAudit, "audited", kDeterministic, kCounter, 1)           \
  X(kPlanHits, kPlanAudit, "plan_hits", kDeterministic, kCounter, 1)        \
  X(kJournalTornTail, kDurability, "journal_torn_tail", kDeterministic,     \
    kCounter, 1)                                                            \
  X(kJournalCorrupt, kDurability, "journal_corrupt", kDeterministic,        \
    kCounter, 1)                                                            \
  X(kRecoveries, kDurability, "recoveries", kDeterministic, kCounter, 1)    \
  X(kReplayedTerminal, kDurability, "replayed_terminal", kDeterministic,    \
    kCounter, 1)                                                            \
  X(kRequeued, kDurability, "requeued", kDeterministic, kCounter, 1)        \
  X(kQuarantined, kDurability, "quarantined", kDeterministic, kCounter, 1)  \
  X(kSnapshots, kDurability, "snapshots", kDeterministic, kCounter, 1)      \
  X(kQueueDepthHighWater, kQueueDepth, "queue_depth_high_water",            \
    kDeterministic, kGauge, 1)                                              \
  X(kLatencyVirtualUs, kLatency, "latency_virtual_us_log2_buckets",         \
    kDeterministic, kLog2Histogram, kLatencyBuckets)                        \
  X(kRetryHistogram, kRetries, "retry_histogram", kDeterministic,           \
    kHistogram, kRetryBuckets)                                              \
  X(kFaultsBySite, kFaults, "faults_by_site", kDeterministic, kCounter,     \
    kFaultSiteCount)                                                        \
  X(kRelErrRaw, kAccuracy, "rel_err_raw", kDeterministic, kSamples, 0)      \
  X(kRelErrCal, kAccuracy, "rel_err_cal", kDeterministic, kSamples, 0)      \
  X(kDispatches, kCluster, "dispatches", kHost, kCounter, 1)                \
  X(kAcks, kCluster, "acks", kHost, kCounter, 1)                            \
  X(kRedispatches, kCluster, "redispatches", kHost, kCounter, 1)            \
  X(kWorkerDeaths, kCluster, "worker_deaths", kHost, kCounter, 1)           \
  X(kWorkersSpawned, kCluster, "workers_spawned", kHost, kCounter, 1)       \
  X(kWorkersRespawned, kCluster, "workers_respawned", kHost, kCounter, 1)   \
  X(kWorkersRetired, kCluster, "workers_retired", kHost, kCounter, 1)       \
  X(kHeartbeats, kHealth, "heartbeats", kHost, kCounter, 1)                 \
  X(kHedgesIssued, kHealth, "hedges_issued", kHost, kCounter, 1)            \
  X(kHedgesWon, kHealth, "hedges_won", kHost, kCounter, 1)                  \
  X(kHedgeLosers, kHealth, "hedge_losers", kHost, kCounter, 1)              \
  X(kIntegrityViolations, kHealth, "integrity_violations", kHost, kCounter, \
    1)                                                                      \
  X(kWorkersQuarantined, kHealth, "workers_quarantined", kHost, kCounter,   \
    1)                                                                      \
  X(kGaugeFree, kWorkers, "free", kHost, kGauge, 1)                         \
  X(kGaugeWorking, kWorkers, "working", kHost, kGauge, 1)                   \
  X(kGaugeDraining, kWorkers, "draining", kHost, kGauge, 1)                 \
  X(kGaugeDead, kWorkers, "dead", kHost, kGauge, 1)                         \
  X(kGaugeQuarantined, kWorkers, "quarantined", kHost, kGauge, 1)           \
  X(kPeakAlive, kWorkers, "peak_alive", kHost, kGauge, 1)                   \
  X(kDispatchAckHostUs, kAckLatency, "dispatch_ack_host_us_log2_buckets",   \
    kHost, kLog2Histogram, kLatencyBuckets)                                 \
  X(kDegradedAppends, kDisk, "degraded_appends", kEnvironment, kCounter, 1) \
  X(kNonDurableJobs, kDisk, "non_durable_jobs", kEnvironment, kCounter, 1)  \
  X(kHeals, kDisk, "heals", kEnvironment, kCounter, 1)                      \
  X(kSnapshotFailures, kDisk, "snapshot_failures", kEnvironment, kCounter,  \
    1)

class Metrics {
 public:
  static constexpr int kLatencyBuckets = 24;
  static constexpr int kRetryBuckets = 8;

  enum class Scope { kDeterministic, kHost, kEnvironment };
  /// kCounter sums (a counter with kFaultSiteCount cells has one per
  /// FaultSite); kGauge holds a last or peak value; kHistogram and
  /// kLog2Histogram count per bucket (see above); kSamples keeps one
  /// double per completion, in processing order, and owns no cells.
  enum class Kind { kCounter, kGauge, kHistogram, kLog2Histogram, kSamples };
  /// JSON groups, in output order. A group with a key is a nested object;
  /// the others put their rows at the top level.
  enum class Section {
    kCounters, kQueueDepth, kPlanAudit, kAccuracy, kFaults, kDurability,
    kRetries, kLatency, kCluster, kHealth, kWorkers, kAckLatency, kDisk,
  };

#define DSM_SVC_METRIC_ID(id, ...) id,
  enum class Series { DSM_SVC_METRIC_SERIES(DSM_SVC_METRIC_ID) };
#undef DSM_SVC_METRIC_ID

  struct Row {
    Section section;
    const char* name;  // JSON key
    Scope scope;
    Kind kind;
    int cells;
  };
#define DSM_SVC_METRIC_ROW(id, section, name, scope, kind, cells) \
  Row{Section::section, name, Scope::scope, Kind::kind, cells},
  static constexpr Row kRows[] = {DSM_SVC_METRIC_SERIES(DSM_SVC_METRIC_ROW)};
#undef DSM_SVC_METRIC_ROW
  static constexpr std::size_t kSeriesCount = std::size(kRows);

  static constexpr const Row& row(Series s) {
    return kRows[static_cast<std::size_t>(s)];
  }

  // Typed views: contiguous one-cell rows of the table, field for row.
  struct Counters {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_closed = 0;
    std::uint64_t rejected_invalid = 0;
    std::uint64_t rejected_fault = 0;
    std::uint64_t rejected_duplicate = 0;  // durable-mode idempotent resubmit
    std::uint64_t completed = 0;  // ran to completion: kOk + kDeadlineMiss
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;           // rejected pre-run on predicted cost
    std::uint64_t deadline_miss = 0;  // ran past (or aborted at) deadline
    std::uint64_t retry_attempts = 0;   // failed attempts that were retried
    std::uint64_t retry_successes = 0;  // jobs that succeeded after >=1 retry
    std::uint64_t audited = 0;
    std::uint64_t plan_hits = 0;
  };

  /// Durability/recovery counters: deterministic for a given crash
  /// history (a recovered service reports the recoveries it performed),
  /// and zero for a service without a durability_dir.
  struct Durability {
    std::uint64_t journal_torn_tail = 0;  // segments ending in a torn record
    std::uint64_t journal_corrupt = 0;    // records failing CRC / framing
    std::uint64_t recoveries = 0;         // recovery passes that found state
    std::uint64_t replayed_terminal = 0;  // finished jobs replayed, not re-run
    std::uint64_t requeued = 0;           // in-flight jobs re-admitted
    std::uint64_t quarantined = 0;        // poison jobs refused re-admission
    std::uint64_t snapshots = 0;          // checkpoints written
  };

  struct Accuracy {
    std::uint64_t count = 0;       // jobs with a usable prediction
    double mean_rel_err_raw = 0;   // |raw predicted - measured| / measured
    double mean_rel_err_cal = 0;   // same with the calibrated prediction
    // Calibrated error over the first/second half of completions, in
    // processing order — the before/after view of online calibration.
    double first_half_cal = 0;
    double second_half_cal = 0;
  };

  /// Cluster-tier counters and worker-state gauges (host scope).
  struct Cluster {
    std::uint64_t dispatches = 0;    // tasks sent to a worker process
    std::uint64_t acks = 0;          // done messages received
    std::uint64_t redispatches = 0;  // attempts re-driven after a death
    std::uint64_t worker_deaths = 0;
    std::uint64_t workers_spawned = 0;    // forked + accepted, lifetime
    std::uint64_t workers_respawned = 0;  // spawns replacing a death
    std::uint64_t workers_retired = 0;    // elastic scale-down retires
    // Gray-failure layer (DESIGN.md §12).
    std::uint64_t heartbeats = 0;      // kHeartbeat frames received
    std::uint64_t hedges_issued = 0;   // duplicate dispatches on suspicion
    std::uint64_t hedges_won = 0;      // attempts settled by the hedge copy
    std::uint64_t hedge_losers = 0;    // copies cancelled after a winner
    std::uint64_t integrity_violations = 0;  // done results discarded
    std::uint64_t workers_quarantined = 0;   // strike threshold reached
    // Current worker-state gauges (last reported) and the peak alive
    // (free + working) complement.
    std::uint64_t gauge_free = 0;
    std::uint64_t gauge_working = 0;
    std::uint64_t gauge_draining = 0;
    std::uint64_t gauge_dead = 0;
    std::uint64_t gauge_quarantined = 0;
    std::uint64_t peak_alive = 0;
  };

  /// Degraded-durability counters (environment scope, DESIGN.md §12):
  /// journal appends dropped to injected/real disk faults, jobs completed
  /// while the journal was degraded (their terminal records never became
  /// durable), segment heals, and failed checkpoint writes.
  struct DiskHealth {
    std::uint64_t degraded_appends = 0;  // journal records dropped
    std::uint64_t non_durable_jobs = 0;  // jobs acked without a durable record
    std::uint64_t heals = 0;             // fresh-segment recoveries
    std::uint64_t snapshot_failures = 0; // checkpoint writes that failed
  };

  /// Add `n` to cell `cell` of a series (a FaultSite index for
  /// kFaultsBySite, 0 for one-cell series).
  void add(Series s, std::uint64_t n = 1, std::size_t cell = 0);
  /// Raise a gauge to at least `v`.
  void raise(Series s, std::uint64_t v);
  /// Count `us` microseconds in its bucket of a log2 histogram.
  void observe(Series s, double us);

  void on_admission(Admission a);
  void on_complete(const JobResult& r);
  void on_recovery(std::uint64_t replayed_terminal, std::uint64_t requeued,
                   std::uint64_t quarantined);
  void on_worker_gauge(int free, int working, int draining, int dead,
                       int quarantined);

  Counters counters() const;
  Durability durability() const;
  Cluster cluster() const;
  DiskHealth disk_health() const;
  Accuracy accuracy() const;
  /// The cells of a series that has cells (every kind but kSamples).
  std::vector<std::uint64_t> values(Series s) const;

  /// The series of one scope as a JSON object, grouped by section.
  std::string json(Scope scope) const;
  /// A log2 histogram as CSV: bucket_lo_us,bucket_hi_us,count.
  std::string histogram_csv(Series s) const;

  /// Every deterministic series, for calibration snapshots: their cells
  /// and sample lists in table order (a default State is a fresh
  /// registry's). import_state replaces them; export-then-import on a
  /// fresh registry yields a byte-identical json(kDeterministic).
  struct State {
    std::vector<std::uint64_t> cells =
        std::vector<std::uint64_t>(kLayout.deterministic_cells);
    std::vector<std::vector<double>> samples =
        std::vector<std::vector<double>>(kLayout.samples);
    bool operator==(const State&) const = default;
  };
  State export_state() const;
  void import_state(const State& s);

 private:
  // Offsets of each series into cells_ (kSamples: into samples_). The
  // deterministic rows lead the table, so their cells are a prefix.
  struct Layout {
    std::size_t offset[kSeriesCount];
    std::size_t cells;
    std::size_t deterministic_cells;
    std::size_t samples;
  };
  static constexpr Layout kLayout = [] {
    Layout l{};
    for (std::size_t i = 0; i < kSeriesCount; ++i) {
      if (kRows[i].kind == Kind::kSamples) {
        l.offset[i] = l.samples++;
        continue;
      }
      l.offset[i] = l.cells;
      l.cells += static_cast<std::size_t>(kRows[i].cells);
      if (kRows[i].scope == Scope::kDeterministic) {
        l.deterministic_cells = l.cells;
      }
    }
    return l;
  }();

  static constexpr std::size_t offset(Series s) {
    return kLayout.offset[static_cast<std::size_t>(s)];
  }
  std::uint64_t& cell(Series s, std::size_t i = 0) {
    return cells_[offset(s) + i];
  }
  std::vector<double>& samples(Series s) { return samples_[offset(s)]; }
  /// The one-cell rows kFirst..kLast, copied field for row into View.
  template <class View, Series kFirst, Series kLast>
  View view() const;
  Accuracy accuracy_locked() const;

  mutable std::mutex mu_;
  std::uint64_t cells_[kLayout.cells] = {};
  std::vector<double> samples_[kLayout.samples];
};

}  // namespace dsm::svc
