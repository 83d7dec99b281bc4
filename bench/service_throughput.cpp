// Load-generator benchmark for the sort service: drives a seeded open-loop
// job mix (sizes x processor counts x all eight key distributions) through
// SortService, and reports throughput, host and virtual latency
// percentiles, plan accuracy before/after online calibration, the plan
// audit hit rate, and the admission rejection rate under a burst — written
// to BENCH_service.json.
//
// Options: the common set (--sizes/--procs/--seed/--jobs) plus
//   --quick             small sizes + short trace; also runs the replay
//                       determinism selfcheck (the ctest wiring uses this)
//   --njobs N           trace length (default 60; 24 with --quick)
//   --capacity N        service queue capacity (default 64)
//   --out PATH          where to write the JSON (default BENCH_service.json)
//   --write-trace PATH  dump the generated trace (replayable later)
//   --replay PATH       replay a trace file instead of generating load;
//                       writes deterministic-only JSON: byte-identical for
//                       any --jobs value
//   --cluster-workers N execute jobs in N forked worker processes over the
//                       cluster transport instead of in-process (strictly
//                       validated, 0..256; 0 = in-process). Defaults to
//                       DSMSORT_CLUSTER_WORKERS when set. Deterministic
//                       output is byte-identical either way.
//   --cluster-serve P   listen on UNIX socket path P and execute on
//                       external dsmsort_workerd processes that connect,
//                       instead of forking workers (--cluster-workers then
//                       caps the pool; scripts/cluster_smoke.sh uses this)
//   --heartbeat-ms N    worker health protocol (strictly validated,
//                       0..60000; 0 = off): workers emit a heartbeat every
//                       N ms, silent workers get hedged then written off.
//                       Defaults to DSMSORT_HEARTBEAT_MS when set.
//   --suspect-after N   missed heartbeat periods before a worker turns
//                       suspect (strictly validated, 1..1000; default 3 or
//                       DSMSORT_SUSPECT_AFTER)
//   --record LIST       comma-separated record types the generated mix
//                       draws from (e.g. "kv32" or "u32,kv32"; default
//                       u32 — byte-preserves every pre-record trace)
#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

#include "cluster/lifecycle.hpp"
#include "cluster/master.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "perf/report.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace {

using namespace dsm;
using Scope = svc::Metrics::Scope;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

svc::ServiceConfig service_config(std::size_t capacity, int workers) {
  svc::ServiceConfig cfg;
  cfg.queue_capacity = capacity;
  cfg.workers = workers;
  // max_batch and audit_every stay at their defaults in every mode: they
  // are part of the trace's determinism contract (replays must match).
  // Tiny queues (the burst phase) shrink the batch to fit.
  cfg.max_batch = std::min(cfg.max_batch, capacity);
  return cfg;
}

svc::LoadMix mix_from_env(const bench::BenchEnv& env) {
  svc::LoadMix mix;
  mix.sizes = env.sizes;
  mix.procs = env.procs;
  return mix;  // dists default to all eight
}

std::vector<keys::RecordType> parse_record_list(const std::string& text) {
  std::vector<keys::RecordType> out;
  std::istringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(enum_from_name_or_throw<keys::RecordType>(
        keys::kRecordTypeNames, item, "record type"));
  }
  DSM_REQUIRE(!out.empty(), "--record needs at least one record type");
  return out;
}

std::vector<sort::Algo> parse_algo_list(const std::string& text) {
  std::vector<sort::Algo> out;
  std::istringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(enum_from_name_or_throw<sort::Algo>(sort::kAlgoNames, item,
                                                      "algorithm"));
  }
  DSM_REQUIRE(!out.empty(), "--algo needs at least one algorithm");
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Everything deterministic a replay produced, as one JSON document.
std::string replay_json(svc::SortService& svc,
                        const std::vector<svc::JobResult>& results) {
  std::ostringstream os;
  os << "{\n  \"bench\": \"service_throughput_replay\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "    " << results[i].to_json()
       << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"metrics\": " << svc.metrics().json(Scope::kDeterministic)
     << ",\n  \"calibration\": " << svc.planner().calibration_json()
     << "\n}\n";
  return os.str();
}

/// A worker-process pool for --cluster-workers, or nullptr for in-process
/// execution. Each service gets its own pool (a pool binds to exactly one
/// service's metrics). With a serve path the pool forks nothing and waits
/// for external dsmsort_workerd processes instead.
std::unique_ptr<cluster::WorkerPool> make_pool(int cluster_workers,
                                               const std::string& serve,
                                               int heartbeat_ms,
                                               int suspect_after) {
  if (cluster_workers <= 0 && serve.empty()) return nullptr;
  cluster::PoolConfig pc;
  pc.heartbeat_ms = heartbeat_ms;
  pc.suspect_after = suspect_after;
  if (serve.empty()) {
    pc.policy.min_workers = cluster_workers;
    pc.policy.max_workers = cluster_workers;
  } else {
    pc.fork_workers = false;
    pc.policy.max_workers = cluster_workers > 0 ? cluster_workers : 256;
  }
  return std::make_unique<cluster::WorkerPool>(pc);
}

std::string run_replay(const std::vector<svc::JobSpec>& trace,
                       std::size_t capacity, int workers,
                       int cluster_workers, int heartbeat_ms,
                       int suspect_after) {
  // Always a forked pool: replay selfchecks build several pools, and only
  // one listener can own a serve socket.
  const std::unique_ptr<cluster::WorkerPool> pool =
      make_pool(cluster_workers, "", heartbeat_ms, suspect_after);
  svc::ServiceConfig cfg = service_config(capacity, workers);
  cfg.remote = pool.get();
  svc::SortService svc(cfg);
  if (pool != nullptr) {
    const Status started = pool->start();
    DSM_CHECK(started.ok(), started.to_string());
  }
  const std::vector<svc::JobResult> results = svc.replay(trace);
  const std::string json = replay_json(svc, results);
  if (pool != nullptr) pool->shutdown();
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const bool quick = [&] {
      ArgParser probe(argc, argv);
      return probe.has("quick");
    }();
    auto env = bench::parse_env(
        argc, argv, quick ? "16K,64K" : "1M,4M,16M",
        quick ? "4,8" : "16,32,64",
        {"quick", "out", "njobs", "capacity", "replay", "write-trace",
         "cluster-workers", "cluster-serve", "heartbeat-ms", "suspect-after",
         "record", "algo"});
    ArgParser args(argc, argv);
    const std::string out_path = args.get("out", "BENCH_service.json");
    const auto njobs = static_cast<std::size_t>(
        args.get_int("njobs", quick ? 24 : 60));
    const auto capacity =
        static_cast<std::size_t>(args.get_int("capacity", 64));
    const std::string replay_path = args.get("replay", "");
    const std::string trace_out = args.get("write-trace", "");
    const std::string serve_path = args.get("cluster-serve", "");
    // Strictly validated (garbage is a typed error, not silently 0); the
    // flag wins over DSMSORT_CLUSTER_WORKERS.
    const int cluster_workers =
        args.has("cluster-workers")
            ? cluster::parse_cluster_workers(
                  "--cluster-workers",
                  args.get("cluster-workers", "").c_str())
            : cluster::cluster_workers_from_env();
    const int heartbeat_ms =
        args.has("heartbeat-ms")
            ? cluster::parse_heartbeat_ms("--heartbeat-ms",
                                          args.get("heartbeat-ms", "").c_str())
            : cluster::heartbeat_ms_from_env();
    const int suspect_after =
        args.has("suspect-after")
            ? cluster::parse_suspect_after(
                  "--suspect-after", args.get("suspect-after", "").c_str())
            : cluster::suspect_after_from_env();

    if (!replay_path.empty()) {
      // Replay mode: deterministic output only — no worker count, no host
      // clocks — so any --jobs (and any --cluster-workers) value writes
      // identical bytes.
      const std::vector<svc::JobSpec> trace = svc::read_trace(replay_path);
      write_file_atomic(out_path,
                        run_replay(trace, capacity, env.jobs, cluster_workers,
                                   heartbeat_ms, suspect_after));
      std::cout << "replayed " << trace.size() << " jobs from " << replay_path
                << " with " << env.jobs << " worker(s)"
                << (cluster_workers > 0
                        ? " across " + std::to_string(cluster_workers) +
                              " worker processes"
                        : "")
                << "\n(json written to " << out_path << ")\n";
      return 0;
    }

    bench::banner("Sort service: predictor-planned scheduling under load",
                  env);
    svc::LoadMix mix = mix_from_env(env);
    if (args.has("record")) {
      mix.records = parse_record_list(args.get("record", ""));
    }
    if (args.has("algo")) {
      // Pin every generated job's algorithm (planner bypass for A/B
      // runs); a list draws per job, like --record.
      mix.algos = parse_algo_list(args.get("algo", ""));
    }
    const std::vector<svc::JobSpec> trace = svc::make_trace(env.seed, njobs, mix);
    if (!trace_out.empty()) {
      svc::write_trace(trace_out, trace);
      std::cout << "(trace written to " << trace_out << ")\n";
    }

    // Live phase: open-loop submission of the whole trace. A full queue
    // rejects (counted, not retried) — that is the service's backpressure
    // answer to this offered load.
    const std::unique_ptr<cluster::WorkerPool> pool =
        make_pool(cluster_workers, serve_path, heartbeat_ms, suspect_after);
    svc::ServiceConfig live_cfg = service_config(capacity, env.jobs);
    live_cfg.remote = pool.get();
    svc::SortService svc(live_cfg);
    if (pool != nullptr) {
      const Status started =
          serve_path.empty() ? pool->start() : pool->serve(serve_path);
      DSM_CHECK(started.ok(), started.to_string());
      if (serve_path.empty()) {
        std::cout << "  cluster: " << cluster_workers
                  << " forked worker process(es)\n";
      } else {
        std::cout << "  cluster: serving external workers on " << serve_path
                  << "\n";
      }
    }
    svc.start();
    const double t0 = now_s();
    std::size_t live_rejected = 0;
    for (const svc::JobSpec& job : trace) {
      if (svc.submit(job) != svc::Admission::kAccepted) ++live_rejected;
    }
    svc.drain();
    const double live_wall = now_s() - t0;
    if (pool != nullptr) {
      pool->shutdown();
      const svc::Metrics::Cluster cl = svc.metrics().cluster();
      std::cout << "  cluster: " << cl.dispatches << " dispatches, "
                << cl.acks << " acks, " << cl.worker_deaths
                << " worker death(s), " << cl.redispatches
                << " re-dispatch(es), " << cl.hedges_issued << " hedge(s), "
                << cl.integrity_violations << " integrity violation(s), "
                << cl.workers_quarantined << " quarantined\n";
    }
    const std::vector<svc::JobResult> results = svc.take_results();

    std::vector<double> host_ms, virt_us;
    std::size_t failed = 0;
    for (const svc::JobResult& r : results) {
      if (r.status != svc::JobStatus::kOk) {
        ++failed;
        continue;
      }
      host_ms.push_back(r.host_latency_ms);
      virt_us.push_back(r.measured_ns / 1e3);
    }
    const svc::Metrics::Counters c = svc.metrics().counters();
    const svc::Metrics::Accuracy acc = svc.metrics().accuracy();
    const double throughput =
        live_wall > 0 ? static_cast<double>(c.completed) / live_wall : 0;
    const double hit_rate =
        c.audited > 0
            ? static_cast<double>(c.plan_hits) / static_cast<double>(c.audited)
            : 0;
    const bool calibration_improved =
        acc.mean_rel_err_cal < acc.mean_rel_err_raw;

    std::cout << "  live: " << c.completed << "/" << trace.size()
              << " jobs in " << fmt_fixed(live_wall, 2) << "s ("
              << fmt_fixed(throughput, 2) << " jobs/s, " << failed
              << " failed, " << live_rejected << " rejected)\n"
              << "  host latency  p50 " << fmt_fixed(percentile(host_ms, 0.50), 1)
              << " ms  p99 " << fmt_fixed(percentile(host_ms, 0.99), 1)
              << " ms\n"
              << "  virtual time  p50 "
              << fmt_fixed(percentile(virt_us, 0.50) / 1e3, 2) << " ms  p99 "
              << fmt_fixed(percentile(virt_us, 0.99) / 1e3, 2) << " ms\n"
              << "  plan accuracy: mean rel err raw "
              << fmt_fixed(acc.mean_rel_err_raw, 3) << " -> calibrated "
              << fmt_fixed(acc.mean_rel_err_cal, 3) << " (first half "
              << fmt_fixed(acc.first_half_cal, 3) << ", second half "
              << fmt_fixed(acc.second_half_cal, 3) << ")\n"
              << "  plan audits: " << c.audited << " (hit rate "
              << fmt_fixed(hit_rate, 2) << ")\n";

    // Burst phase: firehose tiny jobs at a deliberately small queue to
    // measure admission control under overload.
    const std::size_t burst_capacity = 4;
    svc::SortService burst(service_config(burst_capacity, env.jobs));
    svc::LoadMix tiny;
    tiny.sizes = {1u << 12};
    tiny.procs = {4};
    const std::vector<svc::JobSpec> burst_trace =
        svc::make_trace(env.seed + 1, 32, tiny);
    burst.start();
    for (const svc::JobSpec& job : burst_trace) (void)burst.submit(job);
    burst.drain();
    const svc::Metrics::Counters bc = burst.metrics().counters();
    const double burst_rejection_rate =
        static_cast<double>(bc.rejected_full) /
        static_cast<double>(bc.submitted);
    std::cout << "  burst (capacity " << burst_capacity << "): "
              << bc.rejected_full << "/" << bc.submitted
              << " rejected with backpressure\n";

    // Quick mode doubles as the machine-checked acceptance run: replaying
    // the trace must be byte-identical for 1 and 4 workers, and online
    // calibration must not degrade accuracy (the short quick trace gives
    // the EWMA little to learn from, so "strictly better" is asserted on
    // the full run's BENCH_service.json, not here).
    bool replay_identical = false;
    if (quick) {
      const std::string one = run_replay(trace, capacity, 1, cluster_workers,
                                         heartbeat_ms, suspect_after);
      const std::string four = run_replay(trace, capacity, 4, cluster_workers,
                                          heartbeat_ms, suspect_after);
      DSM_CHECK(one == four,
                "replay output differs between 1 and 4 workers");
      replay_identical = true;
      DSM_CHECK(acc.mean_rel_err_cal <= acc.mean_rel_err_raw * 1.1,
                "calibration degraded prediction accuracy");
      std::cout << "  replay selfcheck: 1 vs 4 workers byte-identical\n";
    }

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"service_throughput\",\n"
       << "  \"config\": {\"njobs\": " << njobs << ", \"capacity\": "
       << capacity << ", \"workers\": " << env.jobs
       << ", \"cluster_workers\": " << cluster_workers << ", \"seed\": "
       << env.seed << ", \"quick\": " << (quick ? "true" : "false")
       << ", \"host\": {\"hardware_threads\": "
       << std::thread::hardware_concurrency() << ", \"kernel_isa\": \""
       << sort::kernel_isa_name() << "\"}},\n"
       << "  \"live\": {\"completed\": " << c.completed << ", \"failed\": "
       << c.failed << ", \"rejected_full\": " << c.rejected_full
       << ", \"wall_s\": " << fmt_fixed(live_wall, 3)
       << ", \"throughput_jobs_per_s\": " << fmt_fixed(throughput, 3)
       << ", \"host_latency_ms\": {\"p50\": "
       << fmt_fixed(percentile(host_ms, 0.50), 3) << ", \"p99\": "
       << fmt_fixed(percentile(host_ms, 0.99), 3)
       << "}, \"virtual_us\": {\"p50\": "
       << fmt_fixed(percentile(virt_us, 0.50), 3) << ", \"p99\": "
       << fmt_fixed(percentile(virt_us, 0.99), 3) << "}},\n"
       << "  \"plan_accuracy\": {\"count\": " << acc.count
       << ", \"mean_rel_err_raw\": " << fmt_fixed(acc.mean_rel_err_raw, 4)
       << ", \"mean_rel_err_calibrated\": "
       << fmt_fixed(acc.mean_rel_err_cal, 4)
       << ", \"first_half_calibrated\": " << fmt_fixed(acc.first_half_cal, 4)
       << ", \"second_half_calibrated\": "
       << fmt_fixed(acc.second_half_cal, 4)
       << ", \"calibration_improved\": "
       << (calibration_improved ? "true" : "false") << "},\n"
       << "  \"plan_audit\": {\"audited\": " << c.audited
       << ", \"plan_hits\": " << c.plan_hits << ", \"hit_rate\": "
       << fmt_fixed(hit_rate, 4) << "},\n"
       << "  \"burst\": {\"capacity\": " << burst_capacity
       << ", \"submitted\": " << bc.submitted << ", \"rejected_full\": "
       << bc.rejected_full << ", \"completed\": " << bc.completed
       << ", \"rejection_rate\": " << fmt_fixed(burst_rejection_rate, 4)
       << "},\n"
       << "  \"replay_selfcheck\": "
       << (quick ? (replay_identical ? "\"byte-identical\"" : "\"failed\"")
                 : "\"not run (pass --quick)\"")
       << ",\n"
       << "  \"calibration\": " << svc.planner().calibration_json() << ",\n"
       << "  \"metrics\": " << svc.metrics().json(Scope::kDeterministic)
       << "\n"
       << "}\n";
    write_file_atomic(out_path, js.str());
    std::cout << "(json written to " << out_path << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
