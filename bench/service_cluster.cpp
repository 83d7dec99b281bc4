// Multi-process cluster harness for the sort service.
//
// Two audited experiments against a single-process reference run of the
// same seeded trace:
//
//   1. Replay identity — the clustered service (in-process master, forked
//      worker processes over the framed socket transport) must reproduce
//      the reference byte-for-byte (results JSON + metrics JSON + planner
//      calibration) for every worker count in {1, 2, 4}.
//
//   2. Kill-worker crash matrix — for each victim job in the trace, one
//      worker _exit()s mid-phase while running it (a SIGKILL-grade death
//      on a live socket). The master must re-dispatch the attempt to a
//      fresh worker and the run must still be byte-identical:
//        * no lost job        — every job reaches exactly one terminal
//        * no double execution— dispatches == acks + kills, acks == jobs'
//                               dispatch demand of the uncrashed run
//        * exact state        — planner calibration byte-identical to the
//                               uncrashed single-process reference
//
// Every invariant is DSM_CHECKed: the bench fails loudly, it does not
// just report. Writes BENCH_cluster.json with per-cell outcomes and the
// dispatch/ack latency histogram of the final run.
//
// Options: the common set (--seed/--sizes/--procs) plus
//   --quick     short trace (the ctest wiring)
//   --njobs N   trace length (default 10; 6 with --quick)
//   --out PATH  where to write the JSON (default BENCH_cluster.json)
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "cluster/master.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace {

using namespace dsm;
using Scope = svc::Metrics::Scope;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

svc::ServiceConfig service_config(std::size_t capacity) {
  svc::ServiceConfig cfg;
  cfg.queue_capacity = capacity;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.audit_every = 3;
  return cfg;
}

cluster::PoolConfig pool_config(int workers) {
  cluster::PoolConfig pc;
  pc.policy.min_workers = workers;
  pc.policy.max_workers = workers;
  return pc;
}

struct CrashCell {
  std::uint64_t victim_seq = 0;
  std::uint64_t deaths = 0;
  std::uint64_t redispatches = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t acks = 0;
  double host_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const bool quick = [&] {
      ArgParser probe(argc, argv);
      return probe.has("quick");
    }();
    auto env = bench::parse_env(argc, argv, quick ? "4K,8K" : "4K,8K,16K",
                                quick ? "4,8" : "4,8",
                                {"quick", "out", "njobs"});
    ArgParser args(argc, argv);
    const std::string out_path = args.get("out", "BENCH_cluster.json");
    const auto njobs =
        static_cast<std::size_t>(args.get_int("njobs", quick ? 6 : 10));

    bench::banner("Sort service: multi-process cluster", env);

    svc::LoadMix mix;
    mix.sizes = env.sizes;
    mix.procs = env.procs;
    const std::vector<svc::JobSpec> trace =
        svc::make_trace(env.seed, njobs, mix);

    // Single-process reference: the bytes every cluster run must match.
    svc::SortService local(service_config(njobs + 4));
    const std::string reference = replay_fingerprint(local, trace);
    DSM_CHECK(reference.find("\"status\": \"ok\"") != std::string::npos,
              "reference run produced no ok results");

    // Experiment 1: worker-count sweep.
    const int kWorkerCounts[] = {1, 2, 4};
    std::uint64_t sweep_dispatches = 0;
    for (const int workers : kWorkerCounts) {
      cluster::WorkerPool pool(pool_config(workers));
      svc::ServiceConfig cfg = service_config(njobs + 4);
      cfg.remote = &pool;
      svc::SortService svc(cfg);
      const Status started = pool.start();
      DSM_CHECK(started.ok(), started.to_string());
      const double t0 = now_sec();
      const std::string fp = replay_fingerprint(svc, trace);
      const double ms = (now_sec() - t0) * 1e3;
      DSM_CHECK(fp == reference,
                "cluster output diverged from the single-process "
                "reference at workers=" +
                    std::to_string(workers));
      const svc::Metrics::Cluster cl = svc.metrics().cluster();
      DSM_CHECK(cl.worker_deaths == 0, "unexpected worker death");
      DSM_CHECK(cl.dispatches == cl.acks, "dispatch without ack");
      sweep_dispatches = cl.dispatches;
      pool.shutdown();
      std::cout << "  workers=" << workers << ": byte-identical replay, "
                << cl.dispatches << " dispatches in " << fmt_fixed(ms, 1)
                << " ms\n";
    }

    // Experiment 2: kill-worker matrix. One cell per victim job; the
    // first worker to reach that job dies mid-phase, exactly once (the
    // O_EXCL sentinel arbitrates between racing workers).
    char root_template[] = "/tmp/dsmsort_cluster_XXXXXX";
    const char* root = ::mkdtemp(root_template);
    DSM_CHECK(root != nullptr, "mkdtemp failed");

    std::vector<CrashCell> cells;
    std::string last_cluster_json;
    for (std::uint64_t victim = 0; victim < njobs; ++victim) {
      const std::string sentinel =
          std::string(root) + "/killed_" + std::to_string(victim);
      cluster::PoolConfig pc = pool_config(2);
      pc.worker.crash_hook = [sentinel, victim](const char* /*site*/,
                                                std::uint64_t seq) {
        if (seq != victim) return;
        const int fd =
            ::open(sentinel.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd >= 0) ::_exit(137);
      };
      cluster::WorkerPool pool(pc);
      svc::ServiceConfig cfg = service_config(njobs + 4);
      cfg.remote = &pool;
      svc::SortService svc(cfg);
      const Status started = pool.start();
      DSM_CHECK(started.ok(), started.to_string());
      const double t0 = now_sec();
      const std::string fp = replay_fingerprint(svc, trace);

      CrashCell cell;
      cell.victim_seq = victim;
      cell.host_ms = (now_sec() - t0) * 1e3;
      const svc::Metrics::Cluster cl = svc.metrics().cluster();
      cell.deaths = cl.worker_deaths;
      cell.redispatches = cl.redispatches;
      cell.dispatches = cl.dispatches;
      cell.acks = cl.acks;

      // The crash must have happened, been re-dispatched, and changed
      // nothing observable: no lost job, no double execution.
      DSM_CHECK(fp == reference,
                "crash re-dispatch perturbed deterministic output "
                "(victim seq " +
                    std::to_string(victim) + ")");
      DSM_CHECK(cell.deaths == 1, "expected exactly one worker death");
      DSM_CHECK(cell.redispatches == 1, "expected exactly one re-dispatch");
      DSM_CHECK(cell.acks == sweep_dispatches,
                "ack count diverged from the uncrashed run (lost or "
                "double-executed attempt)");
      DSM_CHECK(cell.dispatches == cell.acks + 1,
                "dispatch count must exceed acks by exactly the one "
                "killed attempt");
      DSM_CHECK(pool.alive_workers() == 2, "dead worker was not replaced");
      last_cluster_json = svc.metrics().json(Scope::kHost);
      pool.shutdown();
      cells.push_back(cell);
    }
    std::cout << "  kill matrix: " << cells.size()
              << " victims, all byte-identical after re-dispatch\n";

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"service_cluster\",\n"
       << "  \"config\": {\"njobs\": " << njobs << ", \"seed\": " << env.seed
       << ", \"worker_counts\": [1, 2, 4]"
       << ", \"quick\": " << (quick ? "true" : "false") << "},\n"
       << "  \"invariants\": {\"replay_byte_identical\": true, "
       << "\"no_lost_job\": true, "
       << "\"no_double_execution\": true, "
       << "\"calibration_byte_identical\": true},\n"
       << "  \"dispatches_per_run\": " << sweep_dispatches << ",\n"
       << "  \"kill_cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CrashCell& c = cells[i];
      js << "    {\"victim_seq\": " << c.victim_seq
         << ", \"deaths\": " << c.deaths
         << ", \"redispatches\": " << c.redispatches
         << ", \"dispatches\": " << c.dispatches << ", \"acks\": " << c.acks
         << ", \"host_ms\": " << fmt_fixed(c.host_ms, 1) << "}"
         << (i + 1 < cells.size() ? ",\n" : "\n");
    }
    js << "  ],\n"
       << "  \"last_run_cluster_metrics\": " << last_cluster_json << "\n"
       << "}\n";
    write_file_atomic(out_path, js.str());
    std::cout << "(json written to " << out_path << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
