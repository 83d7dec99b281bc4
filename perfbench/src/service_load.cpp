// The three service workloads: paper-mix, durable-small and cluster-mix.
//
// Each drives svc::SortService from one generator thread in a closed loop
// that keeps C jobs outstanding (callers of a sort service wait for their
// result), cycling through the workload's trace in order. A run submits a
// fixed number of jobs, the workload's nominal rate times --seconds, so it
// lasts about --seconds on a 4-core host and every run measures the same
// jobs: paper-mix jobs differ 16x in size, and a time-boxed window would
// make throughput depend on which job the window happened to end in.
//
// The deterministic quality figures come from SortService::replay of the
// trace at the service's default batch geometry, never from the live run.
//
// Correctness: every live job must finish kOk and verified. Live jobs are
// re-run directly (a bounded set) and must consume exactly the keys the
// benchmark generates itself and reproduce the service's virtual time;
// cluster jobs are also checked through the integrity fingerprint the
// master computed at dispatch, against the benchmark's own checksum.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cluster/master.hpp"
#include "common/prng.hpp"
#include "pb.hpp"
#include "svc/remote.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace pb {
namespace {

using namespace dsm;
namespace fs = std::filesystem;

struct Workload {
  std::vector<svc::JobSpec> trace;  // one cycle, ids 0..size-1
  int workers = 1;
  std::size_t outstanding = 1;
  int cluster_workers = 0;
  bool durable = false;
  int heartbeat_ms = 0;
  /// Key budgets for the direct re-runs: the correctness spot-check of an
  /// untraced run, and the traced run's sort-layer sample.
  double check_keys = 0;
  double shadow_keys = 0;
  /// Replays averaged into the deterministic figures: the trace itself,
  /// then (grid traces only) the same shapes with keys from derived seeds.
  int replays = 1;
  /// Nominal throughput on a 4-core host: a run submits this many jobs per
  /// --seconds.
  double jobs_per_second = 1;
  std::vector<Index> sizes;  // grid-trace shapes
  std::vector<int> procs;
};

/// Every (n, p, paper distribution) shape once, each job with its own key
/// seed. n, p and distribution cycle with n fastest, so any run of
/// |sizes| x |procs| consecutive jobs holds every (n, p) pair.
std::vector<svc::JobSpec> grid_trace(std::uint64_t seed,
                                     const std::vector<Index>& sizes,
                                     const std::vector<int>& procs) {
  std::vector<svc::JobSpec> trace;
  SplitMix64 rng(seed);
  const std::size_t count =
      sizes.size() * procs.size() * std::size(keys::kAllDists);
  for (std::size_t i = 0; i < count; ++i) {
    svc::JobSpec j;
    j.id = i;
    j.n = sizes[i % sizes.size()];
    j.nprocs = procs[(i / sizes.size()) % procs.size()];
    j.dist = keys::kAllDists[i / (sizes.size() * procs.size())];
    j.seed = rng.next() | 1;
    trace.push_back(j);
  }
  return trace;
}

/// The service's default batch width (the replay's geometry).
const std::size_t kMaxBatch = svc::ServiceConfig{}.max_batch;

Workload make_workload(const Options& opt) {
  Workload w;
  constexpr Index K = 1024;
  if (opt.workload == "paper-mix") {
    // The ROADMAP reference load: the job shapes (n, p, distribution,
    // order) of svc::make_trace at seed 1; --seed draws every job's key
    // seed from make_trace at that seed, so seed 1 is exactly the
    // reference trace and other seeds vary the keys, not the mix.
    svc::LoadMix mix;
    std::size_t count = 60;
    if (opt.smoke) {
      mix.sizes = {16 * K, 64 * K};
      mix.procs = {4, 8};
      count = 24;
    }
    w.trace = svc::make_trace(1, count, mix);
    const std::vector<svc::JobSpec> keyed =
        svc::make_trace(opt.seed, count, mix);
    for (std::size_t i = 0; i < count; ++i) w.trace[i].seed = keyed[i].seed;
    w.workers = opt.nproc;
    w.outstanding = 2 * kMaxBatch;
    w.jobs_per_second = opt.smoke ? 100 : 10.0 / 3;
    w.check_keys = 8.0 * 1024 * 1024;
    w.shadow_keys = 40.0 * 1024 * 1024;
  } else if (opt.workload == "durable-small") {
    w.sizes = opt.smoke ? std::vector<Index>{4 * K, 16 * K}
                        : std::vector<Index>{16 * K, 64 * K, 256 * K};
    w.procs = opt.smoke ? std::vector<int>{4} : std::vector<int>{4, 8, 16};
    w.trace = grid_trace(opt.seed, w.sizes, w.procs);
    // Small jobs make most plan audits near-ties that the keys decide, so
    // one replay's 18 audits swing plan_hit_rate by a quarter from seed to
    // seed; the mean of eight replays, each with its own keys, holds
    // within a few percent.
    w.replays = 8;
    w.jobs_per_second = 60;
    w.workers = 1;  // durability requires one processing pipeline
    w.outstanding = 1;
    w.durable = true;
    w.check_keys = 1e12;  // every distinct job the run reached
    w.shadow_keys = 1e12;
  } else {
    w.sizes = opt.smoke ? std::vector<Index>{16 * K}
                        : std::vector<Index>{256 * K, 1024 * K};
    w.procs = opt.smoke ? std::vector<int>{4, 8} : std::vector<int>{16, 32, 64};
    w.trace = grid_trace(opt.seed, w.sizes, w.procs);
    w.workers = opt.nproc;
    w.outstanding = 2 * kMaxBatch;
    w.cluster_workers = opt.nproc;
    w.heartbeat_ms = 100;
    w.jobs_per_second = opt.smoke ? 200 : 30;
    w.check_keys = 8.0 * 1024 * 1024;
    w.shadow_keys = 16.0 * 1024 * 1024;
  }
  for (std::size_t i = 0; i < w.trace.size(); ++i) w.trace[i].id = i;
  return w;
}

/// One remote attempt as the timing decorator saw it.
struct AttemptSpan {
  std::uint64_t job_id = 0;
  bool audit = false;
  bool check_integrity = false;
  sort::Checksum expect;
  double t0 = 0;
  double t1 = 0;
};

/// Times every WorkerPool::run_attempt call and keeps the fingerprint the
/// master expected, so the benchmark can check it against its own.
class TimedExecutor final : public svc::RemoteExecutor {
 public:
  explicit TimedExecutor(svc::RemoteExecutor& inner) : inner_(inner) {}

  svc::RemoteOutcome run_attempt(const svc::RemoteAttempt& attempt,
                                 const MarkFn& on_mark,
                                 const DispatchFn& on_dispatch) override {
    AttemptSpan s;
    s.job_id = attempt.job.id;
    s.audit = attempt.audit;
    s.check_integrity = attempt.check_integrity;
    s.expect = attempt.expect;
    s.t0 = now_s();
    const svc::RemoteOutcome out =
        inner_.run_attempt(attempt, on_mark, on_dispatch);
    s.t1 = now_s();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
    return out;
  }

  void bind_service(svc::Metrics* metrics, const svc::FaultConfig& faults,
                    std::uint64_t input_cache_budget_bytes) override {
    inner_.bind_service(metrics, faults, input_cache_budget_bytes);
  }

  void note_batch(std::size_t jobs, double predicted_ns,
                  std::size_t queue_depth) override {
    inner_.note_batch(jobs, predicted_ns, queue_depth);
  }

  std::vector<AttemptSpan> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  svc::RemoteExecutor& inner_;
  mutable std::mutex mu_;
  std::vector<AttemptSpan> spans_;
};

/// One durability I/O site as DurabilityConfig::crash_hook reported it.
struct HookEvent {
  std::string site;
  std::uint64_t seq = 0;
  std::thread::id thread;
  double t = 0;
};

class HookLog {
 public:
  void record(const char* site, std::uint64_t seq) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(HookEvent{site, seq, std::this_thread::get_id(), t});
    const std::string s = site;
    if (s.rfind("journal.admit.", 0) == 0) seq_to_id_[seq] = submitting_.load();
  }
  void submitting(std::uint64_t id) { submitting_.store(id); }
  std::vector<HookEvent> events() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  std::map<std::uint64_t, std::uint64_t> seq_to_id() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return seq_to_id_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<HookEvent> events_;
  std::map<std::uint64_t, std::uint64_t> seq_to_id_;
  std::atomic<std::uint64_t> submitting_{0};
};

/// A service configured for the workload, with its worker pool and timing
/// decorator when the workload is clustered. Destruction drains the
/// service and shuts the pool down (reaping every forked worker).
class LiveService {
 public:
  LiveService(const Workload& w, const std::string& durable_dir,
              HookLog* hooks) {
    svc::ServiceConfig cfg;
    cfg.workers = w.workers;
    if (w.durable) {
      fs::remove_all(durable_dir);
      fs::create_directories(durable_dir);
      cfg.durability.dir = durable_dir;
      if (hooks != nullptr) {
        cfg.durability.crash_hook = [hooks](const char* site,
                                            std::uint64_t seq) {
          hooks->record(site, seq);
        };
      }
    }
    if (w.cluster_workers > 0) {
      cluster::PoolConfig pc;
      pc.policy.min_workers = w.cluster_workers;
      pc.policy.max_workers = w.cluster_workers;
      pc.heartbeat_ms = w.heartbeat_ms;
      pool_ = std::make_unique<cluster::WorkerPool>(pc);
      timed_ = std::make_unique<TimedExecutor>(*pool_);
      cfg.remote = timed_.get();
    }
    svc_ = std::make_unique<svc::SortService>(cfg);
    if (pool_ != nullptr) {
      const Status st = pool_->start();
      if (!st.ok()) throw std::runtime_error("pool start: " + st.to_string());
    }
  }
  ~LiveService() { drain(); }
  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  svc::SortService& service() { return *svc_; }
  /// Start the server loop (once; later calls do nothing).
  void start() {
    if (started_) return;
    svc_->start();
    started_ = true;
  }
  const TimedExecutor* timed() const { return timed_.get(); }
  /// Finish everything admitted and reap the pool's workers (idempotent).
  void drain() {
    svc_->drain();
    if (pool_ != nullptr) pool_->shutdown();
  }

 private:
  // Declared in destruction order: the service (which borrows the
  // decorator and pool) goes first.
  std::unique_ptr<cluster::WorkerPool> pool_;
  std::unique_ptr<TimedExecutor> timed_;
  std::unique_ptr<svc::SortService> svc_;
  bool started_ = false;
};

svc::JobSpec probe_job(std::uint64_t id) {
  svc::JobSpec j;
  j.id = id;
  j.n = 4096;
  j.nprocs = 4;
  j.dist = keys::Dist::kGauss;
  j.seed = 1;
  return j;
}

/// Median over repetitions of: construct the service (recovering a fresh
/// WAL directory when durable), fork the worker pool and its hello
/// handshake, start the server, submit a tiny probe job and see its result.
/// Timing to the first result rather than the first admission also counts
/// the lazy set-up the first job pays, and admission alone (~50 us, mostly
/// the server thread's start) moved 2x between processes.
double measure_setup_s(const Workload& w, const std::string& dir,
                       int reps, Report& report) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    LiveService live(w, dir + "/setup", nullptr);
    live.start();
    const svc::Admission a =
        live.service().submit(probe_job(static_cast<std::uint64_t>(r)));
    if (a != svc::Admission::kAccepted) {
      report.fail("setup probe rejected");
      continue;
    }
    std::vector<svc::JobResult> results;
    while (results.empty()) {
      std::this_thread::yield();
      results = live.service().take_results();
    }
    times.push_back(now_s() - t0);
    if (results[0].status != svc::JobStatus::kOk || !results[0].verified) {
      report.fail("setup probe job failed: " + results[0].error);
    }
  }
  return median(times);
}

struct LiveJob {
  std::uint64_t id = 0;
  std::size_t pos = 0;  // position in the workload trace
  double t_submit = 0;
  double t_accepted = 0;  // submit() returned
  double t_done = 0;
  bool accepted = false;
  bool done = false;
  svc::JobResult result;

  bool ok() const {
    return done && result.status == svc::JobStatus::kOk && result.verified;
  }
  double latency_s() const { return t_done - t_submit; }
};

struct LiveRun {
  std::vector<LiveJob> jobs;  // in submission order
  double t_start = 0;
  double wall_s = 0;  // start to last completion
  std::size_t ok = 0;
  double jobs_per_s() const {
    return wall_s > 0 ? static_cast<double>(ok) / wall_s : 0.0;
  }
};

/// The closed loop: keep `outstanding` jobs in flight, cycling through the
/// trace, until `count` jobs were submitted; then wait for the jobs in
/// flight. The first C jobs are queued before the server starts, so its
/// first batch is full; with C = 2 x max_batch the next batch is then
/// always queued before the running one finishes, and the live batches are
/// the replay's.
LiveRun closed_loop(LiveService& live, const Workload& w, std::uint64_t count,
                    HookLog* hooks) {
  svc::SortService& service = live.service();
  LiveRun run;
  std::map<std::uint64_t, std::size_t> index;  // id -> jobs slot
  std::size_t in_flight = 0;
  std::uint64_t next = 0;
  run.t_start = now_s();
  double t_last = run.t_start;
  for (;;) {
    while (next < count && in_flight < w.outstanding) {
      LiveJob job;
      job.id = next;
      job.pos = static_cast<std::size_t>(next % w.trace.size());
      svc::JobSpec spec = w.trace[job.pos];
      spec.id = next;
      ++next;
      if (hooks != nullptr) hooks->submitting(spec.id);
      job.t_submit = now_s();
      job.accepted = service.submit(spec) == svc::Admission::kAccepted;
      job.t_accepted = now_s();
      if (job.accepted) ++in_flight;
      index[job.id] = run.jobs.size();
      run.jobs.push_back(job);
    }
    live.start();
    if (next >= count && in_flight == 0) break;
    std::vector<svc::JobResult> done = service.take_results();
    if (done.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    const double t = now_s();
    for (svc::JobResult& r : done) {
      const auto it = index.find(r.id);
      if (it == index.end()) continue;  // not ours (cannot happen)
      LiveJob& job = run.jobs[it->second];
      job.t_done = t;
      job.done = true;
      job.result = std::move(r);
      --in_flight;
      t_last = t;
    }
  }
  run.wall_s = t_last - run.t_start;
  for (const LiveJob& j : run.jobs) {
    if (j.ok()) ++run.ok;
  }
  return run;
}

/// Seconds from the loop's start to its k-th ok completion.
double time_to_complete(const LiveRun& run, std::size_t k) {
  std::vector<double> done;
  for (const LiveJob& j : run.jobs) {
    if (j.ok()) done.push_back(j.t_done - run.t_start);
  }
  std::sort(done.begin(), done.end());
  return done.at(k - 1);
}

void count_live(const LiveRun& run, Report& report) {
  for (const LiveJob& j : run.jobs) {
    report.attempted += 1;
    if (!j.ok()) {
      report.failed += 1;
      report.fail("job " + std::to_string(j.id) +
                  (j.accepted ? " finished " +
                                    std::string(svc::job_status_name(
                                        j.result.status)) +
                                    (j.result.verified ? "" : " unverified") +
                                    " " + j.result.error
                              : " rejected at admission"));
    }
  }
}

struct Replay {
  std::vector<svc::JobResult> results;  // the first replay, in trace order
  double virtual_ms_mean = 0;
  double plan_hit_rate = 0;
  double pred_rel_err = 0;
  std::uint64_t audits = 0;
  /// Raw predictor error per algorithm over every replayed job: sum, count.
  std::map<std::string, std::pair<double, double>> err_by_algo;
};

/// SortService::replay of the trace: in-process, non-durable, default
/// batch geometry. Byte-identical for any worker count, so it uses every
/// core. With w.replays > 1 the figures are means over that many replays
/// of the same shapes, each with its own keys.
Replay replay_trace(const Workload& w, std::uint64_t seed, int workers,
                    Report& report) {
  Replay out;
  for (int r = 0; r < w.replays; ++r) {
    const std::vector<svc::JobSpec> trace =
        r == 0 ? w.trace
               : grid_trace(mix_seed(seed, static_cast<std::uint64_t>(r)),
                            w.sizes, w.procs);
    svc::ServiceConfig cfg;
    cfg.workers = workers;
    svc::SortService service(cfg);
    std::vector<svc::JobResult> results = service.replay(trace);
    std::vector<double> vms;
    for (const svc::JobResult& j : results) {
      if (j.status != svc::JobStatus::kOk || !j.verified) {
        report.fail("replay job " + std::to_string(j.id) + " failed: " +
                    j.error);
        continue;
      }
      vms.push_back(j.measured_ns / 1e6);
      auto& e = out.err_by_algo[sort::algo_name(j.plan.algo)];
      e.first += std::abs(j.plan.predicted_raw_ns - j.measured_ns) /
                 j.measured_ns;
      e.second += 1;
    }
    const svc::Metrics::Counters c = service.metrics().counters();
    out.virtual_ms_mean += mean(vms);
    out.audits += c.audited;
    out.plan_hit_rate += c.audited > 0 ? static_cast<double>(c.plan_hits) /
                                             static_cast<double>(c.audited)
                                       : 0.0;
    out.pred_rel_err += service.metrics().accuracy().mean_rel_err_raw;
    if (r == 0) out.results = std::move(results);
  }
  const auto n = static_cast<double>(w.replays);
  out.virtual_ms_mean /= n;
  out.plan_hit_rate /= n;
  out.pred_rel_err /= n;
  return out;
}

std::string plan_cell(const svc::Plan& p) {
  return cell_key(p.algo, p.model, p.radix_bits);
}

/// Plan-mix guard: the total variation distance between the plan mix of
/// the live run and the plans a replay of the same job sequence chooses
/// (0 = same mix). The replay is planning-only: a fresh planner with the
/// service's configuration plans the admitted jobs in the live loop's
/// batches (min(C, max_batch) consecutive jobs) and observes the virtual
/// times the live run measured, which are deterministic per job and plan.
/// A live run whose batches formed otherwise, or whose mix diverged for any
/// other reason, measured a different workload.
double plan_mix_tvd(const Workload& w, const LiveRun& run) {
  svc::Planner planner{svc::ServiceConfig{}.planner};
  std::vector<const LiveJob*> seq;
  for (const LiveJob& j : run.jobs) {
    if (j.accepted) seq.push_back(&j);
  }
  std::map<std::string, double> diff;
  double n = 0;
  const std::size_t width = std::min(w.outstanding, kMaxBatch);
  for (std::size_t b = 0; b < seq.size(); b += width) {
    const std::size_t e = std::min(seq.size(), b + width);
    std::vector<std::optional<svc::Plan>> plans;
    for (std::size_t i = b; i < e; ++i) {
      svc::JobSpec spec = w.trace[seq[i]->pos];
      spec.id = seq[i]->id;
      Result<svc::Plan> p = planner.try_plan(spec);
      plans.push_back(p.ok() ? std::optional<svc::Plan>(*p) : std::nullopt);
    }
    for (std::size_t i = b; i < e; ++i) {
      const LiveJob& j = *seq[i];
      const std::optional<svc::Plan>& plan = plans[i - b];
      if (!j.ok() || !plan.has_value()) continue;
      diff[plan_cell(j.result.plan)] += 1;
      diff[plan_cell(*plan)] -= 1;
      n += 1;
      planner.observe(*plan, j.result.measured_ns);
    }
  }
  double d = 0;
  for (const auto& [cell, v] : diff) d += std::abs(v);
  return n > 0 ? 0.5 * d / n : 0.0;
}

/// Positions of the run's ok jobs, each once, in first-seen order.
std::vector<std::size_t> distinct_positions(const LiveRun& run) {
  std::vector<std::size_t> out;
  std::set<std::size_t> seen;
  for (const LiveJob& j : run.jobs) {
    if (j.ok() && seen.insert(j.pos).second) out.push_back(j.pos);
  }
  return out;
}

/// The live job that first ran trace position `pos`.
const LiveJob& first_at(const LiveRun& run, std::size_t pos) {
  for (const LiveJob& j : run.jobs) {
    if (j.ok() && j.pos == pos) return j;
  }
  throw std::runtime_error("no ok job at position " + std::to_string(pos));
}

/// Host time of direct re-runs beside the plain-sort time of their keys.
struct RerunTax {
  double sort_s = 0;   // sort calls minus their keygen spans
  double plain_s = 0;  // seq_radix_sort of the same keys
};

/// Re-run the executed plan of live jobs directly (smallest first when
/// `smallest_first`, else in trace order) until `key_budget` keys were
/// sorted. Each must consume the benchmark's own keys and reproduce the
/// service's virtual time exactly. Each re-run is timed next to a plain
/// sort of the same keys, measured just before it so host-speed drift
/// cancels. With a SortLayer the re-runs are traced.
RerunTax direct_reruns(const Workload& w, const LiveRun& run,
                       double key_budget, bool smallest_first, Report& report,
                       SortLayer* layer) {
  std::vector<std::size_t> positions = distinct_positions(run);
  if (smallest_first) {
    std::stable_sort(positions.begin(), positions.end(),
                     [&](std::size_t a, std::size_t b) {
                       return w.trace[a].n < w.trace[b].n;
                     });
  }
  RerunTax tax;
  double keys_done = 0;
  std::vector<Stamp> stamps;
  for (const std::size_t pos : positions) {
    const svc::JobSpec& job = w.trace[pos];
    if (keys_done > 0 && keys_done + static_cast<double>(job.n) > key_budget) {
      break;
    }
    keys_done += static_cast<double>(job.n);
    const LiveJob& live = first_at(run, pos);
    const svc::Plan& plan = live.result.plan;
    const std::vector<Key> keys =
        own_input(job.dist, job.n, job.nprocs, plan.radix_bits, job.seed);
    const double plain_s = baseline_sort_s(keys, report);
    SortRun r;
    double t_call = 0;
    double t_return = 0;
    if (!run_checked_sort(
            svc::sort_spec_for(job, plan.algo, plan.model, plan.radix_bits),
            sort::checksum_of(keys), layer != nullptr, report, r, stamps,
            t_call, t_return)) {
      continue;
    }
    if (r.virtual_ns != live.result.measured_ns) {
      report.fail("job at position " + std::to_string(pos) +
                  ": direct re-run virtual time differs from the service's");
    }
    tax.sort_s += r.wall_s - r.keygen_s;
    tax.plain_s += plain_s;
    if (layer != nullptr) layer->add(r, stamps, t_call, t_return);
  }
  return tax;
}

/// Cluster jobs: every attempt the master fingerprinted must expect the
/// checksum of the keys the benchmark generates for that job. Returns the
/// number of attempts checked.
std::size_t check_fingerprints(const Workload& w, const LiveRun& run,
                               const TimedExecutor& timed, Report& report) {
  std::map<std::uint64_t, const LiveJob*> by_id;
  for (const LiveJob& j : run.jobs) by_id[j.id] = &j;
  std::map<std::string, sort::Checksum> own;  // "<pos>/<radix>"
  std::size_t checked = 0;
  for (const AttemptSpan& s : timed.spans()) {
    const auto it = by_id.find(s.job_id);
    if (it == by_id.end() || !it->second->done) continue;
    if (!s.check_integrity) {
      report.fail("remote attempt dispatched without an integrity check");
      continue;
    }
    const LiveJob& live = *it->second;
    const svc::JobSpec& job = w.trace[live.pos];
    // remote and local keys depend on the radix too; key the cache by both.
    const int radix = s.audit ? live.result.plan.runner_radix_bits
                              : live.result.plan.radix_bits;
    const std::string key =
        std::to_string(live.pos) + "/" + std::to_string(radix);
    auto own_it = own.find(key);
    if (own_it == own.end()) {
      own_it = own.emplace(key, sort::checksum_of(own_input(
                                    job.dist, job.n, job.nprocs, radix,
                                    job.seed)))
                   .first;
    }
    if (!same_checksum(own_it->second, s.expect)) {
      report.fail("job " + std::to_string(s.job_id) +
                  ": master fingerprint differs from keys::generate");
    }
    ++checked;
  }
  return checked;
}

/// Durability spans from the crash-hook log: journal fsyncs, snapshots,
/// and each job's execution span (attempt-start durable to terminal).
struct DurableSpans {
  double fsync_s = 0;
  std::size_t fsyncs = 0;
  double job_fsync_s = 0;  // fsyncs of records belonging to live jobs
  double snapshot_s = 0;
  std::size_t snapshots = 0;
  std::map<std::uint64_t, double> exec_s;     // job id -> span
  std::map<std::uint64_t, double> covered_s;  // job id -> first..last event
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

DurableSpans durable_spans(const HookLog& log) {
  DurableSpans out;
  const std::vector<HookEvent> ev = log.events();
  const std::map<std::uint64_t, std::uint64_t> ids = log.seq_to_id();
  std::map<std::thread::id, const HookEvent*> last_on_thread;
  std::map<std::thread::id, const HookEvent*> open_fsync;
  std::map<std::uint64_t, double> exec_start;  // seq -> t
  std::map<std::uint64_t, std::pair<double, double>> first_last;  // seq
  for (const HookEvent& e : ev) {
    if (ends_with(e.site, ".before-fsync")) {
      open_fsync[e.thread] = &e;
    } else if (ends_with(e.site, ".after-fsync")) {
      const auto it = open_fsync.find(e.thread);
      if (it != open_fsync.end() && it->second != nullptr) {
        const double d = e.t - it->second->t;
        out.fsync_s += d;
        ++out.fsyncs;
        if (ids.count(e.seq) != 0) out.job_fsync_s += d;
        it->second = nullptr;
      }
    } else if (e.site == "snapshot.after-rename") {
      const auto it = last_on_thread.find(e.thread);
      if (it != last_on_thread.end()) {
        out.snapshot_s += e.t - it->second->t;
        ++out.snapshots;
      }
    }
    if (e.site.rfind("journal.", 0) == 0 &&
        e.site.rfind("journal.admit.", 0) != 0) {
      auto& fl = first_last[e.seq];
      if (fl.first == 0) fl.first = e.t;
      fl.second = e.t;
    }
    if (e.site == "journal.attempt-start.after-fsync" &&
        exec_start.count(e.seq) == 0) {
      exec_start[e.seq] = e.t;
    }
    if (e.site == "journal.terminal.before-fsync") {
      const auto s = exec_start.find(e.seq);
      const auto id = ids.find(e.seq);
      if (s != exec_start.end() && id != ids.end()) {
        out.exec_s[id->second] = e.t - s->second;
      }
    }
    if (e.site.rfind("snapshot.", 0) != 0) last_on_thread[e.thread] = &e;
  }
  for (const auto& [seq, fl] : first_last) {
    const auto id = ids.find(seq);
    if (id != ids.end()) out.covered_s[id->second] = fl.second - fl.first;
  }
  return out;
}

/// keys::generate, and generate + checksum_of (the master's fingerprint
/// work), timed on the run's distinct inputs.
void fill_keys_layer(const Workload& w, const LiveRun& run, LayerSet& layers,
                     Report& report) {
  double gen_s = 0;
  double fp_s = 0;
  double keys_total = 0;
  std::size_t jobs = 0;
  for (const std::size_t pos : distinct_positions(run)) {
    const svc::JobSpec& job = w.trace[pos];
    const double t0 = now_s();
    const std::vector<Key> keys =
        own_input(job.dist, job.n, job.nprocs, 8, job.seed);
    const double t1 = now_s();
    const sort::Checksum c = sort::checksum_of(keys);
    const double t2 = now_s();
    if (c.count != static_cast<std::uint64_t>(job.n)) {
      report.fail("keys::generate produced the wrong key count");
    }
    gen_s += t1 - t0;
    fp_s += t2 - t0;
    keys_total += static_cast<double>(job.n);
    ++jobs;
  }
  if (jobs == 0) return;
  layers.set("keys.gen_ns_per_key", gen_s * 1e9 / keys_total);
  layers.set("keys.fingerprint_ms_per_job",
             fp_s * 1e3 / static_cast<double>(jobs));
}

/// The planner's per-job cost on a benchmark-owned planner fed the trace
/// in order, observing the replay's measured times as the service would.
double plan_us(const Workload& w, const Replay& replay, Report& report) {
  svc::Planner planner;
  std::vector<double> us;
  for (std::size_t i = 0; i < w.trace.size(); ++i) {
    const double t0 = now_s();
    const Result<svc::Plan> plan = planner.try_plan(w.trace[i]);
    us.push_back((now_s() - t0) * 1e6);
    if (!plan.ok()) {
      report.fail("benchmark planner refused trace job " + std::to_string(i));
      continue;
    }
    if (replay.results[i].measured_ns > 0) {
      planner.observe(*plan, replay.results[i].measured_ns);
    }
  }
  return mean(us);
}

void emit_end_to_end(const LiveRun& run, const Replay& replay,
                     const RerunTax& tax, double setup_s, Report& report) {
  std::vector<double> lat_ms;
  for (const LiveJob& j : run.jobs) {
    if (j.ok()) lat_ms.push_back(j.latency_s() * 1e3);
  }
  const TailStats lat = tail_stats(lat_ms);
  report.info_num("latency_tail_pct", lat.tail_pct);
  report.info_num("latency_samples", static_cast<double>(lat.samples));
  report.put("jobs_per_s", run.jobs_per_s(), "jobs/s");
  report.put("latency_ms_p50", lat.p50, "ms");
  report.put("latency_ms_tail", lat.tail, "ms");
  report.info_num("host_tax_sort_s", tax.sort_s);
  report.info_num("host_tax_plain_sort_s", tax.plain_s);
  report.put("host_tax_x", tax.plain_s > 0 ? tax.sort_s / tax.plain_s : 0.0,
             "x");
  report.put("success_frac",
             static_cast<double>(run.ok) /
                 static_cast<double>(std::max<std::size_t>(run.jobs.size(), 1)),
             "fraction");
  report.put("setup_s", setup_s, "s");
  report.put("peak_rss_mb", peak_rss_mb(), "MB");
  report.put("virtual_ms_mean", replay.virtual_ms_mean, "ms");
  report.put("plan_hit_rate", replay.plan_hit_rate, "fraction");
  report.put("pred_rel_err", replay.pred_rel_err, "fraction");
}

std::string plan_mix_json(const LiveRun& run) {
  std::map<std::string, int> mix;
  for (const LiveJob& j : run.jobs) {
    if (j.ok()) ++mix[plan_cell(j.result.plan)];
  }
  std::string s = "{";
  for (const auto& [cell, count] : mix) {
    s += (s.size() > 1 ? ", \"" : "\"") + cell + "\": " + std::to_string(count);
  }
  return s + "}";
}

}  // namespace

void run_service_workload(const Options& opt, Report& report) {
  const Workload w = make_workload(opt);
  const std::string dir =
      opt.work_dir + "/" + opt.workload + "-" + std::to_string(::getpid());
  fs::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{dir};

  const double setup_s = measure_setup_s(w, dir, 31, report);

  // Live phase(s). A traced run measures the same loop three times with
  // half the jobs each: untraced, traced, and untraced again.
  const std::uint64_t count = std::max<std::uint64_t>(
      w.outstanding,
      static_cast<std::uint64_t>(std::llround(
          w.jobs_per_second * (opt.trace ? opt.seconds / 2 : opt.seconds))));
  LiveRun run;
  std::size_t fingerprints = 0;
  {
    LiveService live(w, dir + "/live", nullptr);
    run = closed_loop(live, w, count, nullptr);
    live.drain();
    if (live.timed() != nullptr) {
      fingerprints += check_fingerprints(w, run, *live.timed(), report);
    }
  }
  count_live(run, report);
  const Replay replay = replay_trace(w, opt.seed, opt.nproc, report);
  const double tvd = plan_mix_tvd(w, run);

  std::cout << "# " << opt.workload << ": " << run.ok << "/" << run.jobs.size()
            << " jobs ok in " << run.wall_s << " s (" << run.jobs_per_s()
            << " jobs/s), replay of " << w.trace.size() << " jobs: "
            << replay.audits << " audits\n";
  report.info("plan_mix", plan_mix_json(run));
  report.info_num("plan_mix_tvd", tvd);
  if (tvd > 0.25) {
    std::cerr << "perfbench: " << opt.workload
              << ": live plan mix diverged from the replay (total variation "
              << tvd << "); this run measured a different workload\n";
    report.info("plan_mix_diverged", "true");
  }
  report.info_num("plan_audits", static_cast<double>(replay.audits));
  report.info_num("virtual_ms_mean", replay.virtual_ms_mean);
  report.info_num("plan_hit_rate", replay.plan_hit_rate);
  report.info_num("pred_rel_err", replay.pred_rel_err);

  if (!opt.trace) {
    report.info_num("fingerprints_checked", static_cast<double>(fingerprints));
    const RerunTax tax =
        direct_reruns(w, run, w.check_keys, true, report, nullptr);
    emit_end_to_end(run, replay, tax, setup_s, report);
    return;
  }

  // Traced run: the same loop with every outside hook armed.
  HookLog hooks;
  LiveRun traced;
  svc::Metrics::Cluster cl0;
  svc::Metrics::Cluster cl1;
  std::vector<AttemptSpan> attempts;
  {
    LiveService live(w, dir + "/traced", w.durable ? &hooks : nullptr);
    cl0 = live.service().metrics().cluster();
    traced = closed_loop(live, w, count, &hooks);
    cl1 = live.service().metrics().cluster();
    live.drain();
    if (live.timed() != nullptr) {
      fingerprints += check_fingerprints(w, traced, *live.timed(), report);
      attempts = live.timed()->spans();
    }
  }
  count_live(traced, report);
  report.info_num("fingerprints_checked", static_cast<double>(fingerprints));
  // The untraced loop once more, now as warm as the traced one was (the
  // first loop also paid the process's first large allocations): the
  // reference for the tracing overhead.
  LiveRun again;
  {
    LiveService live(w, dir + "/again", nullptr);
    again = closed_loop(live, w, count, nullptr);
  }
  count_live(again, report);

  LayerSet layers;
  fill_keys_layer(w, traced, layers, report);
  SortLayer sort_layer;
  (void)direct_reruns(w, traced, w.shadow_keys, false, report, &sort_layer);
  sort_layer.emit(layers);
  layers.set("perf.plan_us", plan_us(w, replay, report));
  for (const auto& [algo, e] : replay.err_by_algo) {
    layers.set("perf.pred_rel_err." + algo, e.first / e.second);
  }
  layers.set("svc.plan_mix_tvd", plan_mix_tvd(w, traced));

  // Per-job latency and the spans that cover it.
  std::map<std::uint64_t, double> exec_s;     // job id -> execution span
  std::map<std::uint64_t, double> covered_s;  // job id -> spans besides submit
  double latency_total = 0;
  std::size_t ok_jobs = 0;
  if (w.durable) {
    const DurableSpans ds = durable_spans(hooks);
    exec_s = ds.exec_s;
    covered_s = ds.covered_s;
    if (ds.fsyncs > 0) {
      layers.set("svc.journal.fsync_us",
                 ds.fsync_s * 1e6 / static_cast<double>(ds.fsyncs));
    }
    layers.set("svc.journal.records_per_job",
               static_cast<double>(ds.fsyncs) /
                   static_cast<double>(std::max<std::size_t>(traced.ok, 1)));
    if (ds.snapshots > 0) {
      layers.set("svc.snapshot_ms",
                 ds.snapshot_s * 1e3 / static_cast<double>(ds.snapshots));
    }
    double lat = 0;
    for (const LiveJob& j : traced.jobs) {
      if (j.ok()) lat += j.latency_s();
    }
    if (lat > 0) layers.set("svc.journal.latency_share", ds.job_fsync_s / lat);
  }
  if (w.cluster_workers > 0) {
    std::vector<double> att_us;
    double busy = 0;
    for (const AttemptSpan& s : attempts) {
      const double d = s.t1 - s.t0;
      att_us.push_back(d * 1e6);
      busy += d;
      exec_s[s.job_id] += d;
    }
    covered_s = exec_s;
    layers.set("cluster.attempt_ms", mean(att_us) / 1e3);
    layers.set("cluster.dispatch_ack_us_p50", median(att_us));
    if (traced.wall_s > 0) {
      layers.set("cluster.worker_busy_frac",
                 busy / (traced.wall_s *
                         static_cast<double>(w.cluster_workers)));
    }
    const double dispatches =
        static_cast<double>(cl1.dispatches - cl0.dispatches);
    if (dispatches > 0) {
      layers.set("cluster.acks_per_dispatch",
                 static_cast<double>(cl1.acks - cl0.acks) / dispatches);
    }
    layers.set("cluster.heartbeats_per_job",
               static_cast<double>(cl1.heartbeats - cl0.heartbeats) /
                   static_cast<double>(std::max<std::size_t>(traced.ok, 1)));
  }
  std::vector<double> submit_us;
  std::vector<double> exec_ms;
  std::vector<double> overhead_ms;
  double covered_total = 0;
  for (const LiveJob& j : traced.jobs) {
    submit_us.push_back((j.t_accepted - j.t_submit) * 1e6);
    if (!j.ok()) continue;
    ++ok_jobs;
    latency_total += j.latency_s();
    const auto e = exec_s.find(j.id);
    if (e != exec_s.end()) {
      exec_ms.push_back(e->second * 1e3);
      overhead_ms.push_back((j.latency_s() - e->second) * 1e3);
    }
    const auto c = covered_s.find(j.id);
    covered_total += std::min(
        j.latency_s(), (j.t_accepted - j.t_submit) +
                           (c != covered_s.end() ? c->second : 0.0));
  }
  layers.set("svc.submit_us", mean(submit_us));
  layers.set("svc.exec_ms", mean(exec_ms));
  layers.set("svc.overhead_ms", mean(overhead_ms));
  // Overhead: the traced loop's time to its first K completions against
  // the warm untraced loop's, K the smaller completion count (every loop
  // starts at the same trace position, so the first K jobs are the same).
  const std::size_t k = std::min(again.ok, traced.ok);
  if (k > 0) {
    layers.set("trace.overhead_frac",
               time_to_complete(traced, k) / time_to_complete(again, k) - 1.0);
  }
  if (latency_total > 0) {
    layers.set("trace.unattributed_frac", 1.0 - covered_total / latency_total);
  }
  report.info_num("traced_jobs", static_cast<double>(ok_jobs));
  report.info_num("shadow_sorts", static_cast<double>(sort_layer.sorts()));
  layers.emit(report);
}

}  // namespace pb
