// Gray-failure chaos harness for the clustered sort service
// (DESIGN.md §12). Where bench/service_cluster kills workers outright,
// this bench injects the failures that *don't* announce themselves and
// audits that the health protocol, hedged re-dispatch, end-to-end
// integrity checking, and degraded durability together keep every
// invariant the clean path promises:
//
//   For each seed, against a single-process reference of the same trace:
//
//   1. stall    — a worker raises SIGSTOP mid-phase (the gray failure:
//                 the process is alive, the socket open, nothing moves).
//                 The heartbeat lattice must turn silence into a hedge,
//                 the hedge must win, and the run must stay
//                 byte-identical.
//   2. lie      — a worker reports a bit-flipped input fingerprint with
//                 an otherwise flawless protocol. The master must catch
//                 it end-to-end, quarantine exactly that worker (zero
//                 innocent bystanders), re-dispatch, and stay
//                 byte-identical.
//   3. wal      — every WAL write/fsync fails (ENOSPC-grade, via the
//                 deterministic fsio fault shim) under a durable
//                 single-worker service. The service must keep serving:
//                 all jobs ack, results and calibration match a healthy
//                 non-durable run, and Metrics counts the degraded
//                 appends and non-durable jobs.
//   4. mixed    — one worker _exit()s on one victim job and another
//                 SIGSTOPs on a second, in the same run.
//
//   Accounting identity, every clustered cell: every dispatch reaches
//   exactly one terminal —
//     dispatches == acks + hedge_losers + worker_deaths
//                   + integrity_violations
//   and acks equals the clean run's dispatch demand (no lost job, no
//   double execution).
//
// Every invariant is DSM_CHECKed: the bench fails loudly, it does not
// just report. Writes BENCH_chaos.json with per-cell counters.
//
// Options: the common set (--seed/--sizes/--procs) plus
//   --quick     one seed, short trace (the ctest wiring)
//   --njobs N   trace length (default 8; 5 with --quick)
//   --out PATH  where to write the JSON (default BENCH_chaos.json)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

#include "cluster/master.hpp"
#include "cluster/transport.hpp"
#include "cluster/worker.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace {

using namespace dsm;

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

/// Heartbeat-armed pool. `suspect_after` is the missed-beat budget: 2
/// for chaos cells (hedge fast), a generous 250 for clean baselines so
/// a scheduler hiccup cannot fake a gray failure.
cluster::PoolConfig pool_config(int workers, int heartbeat_ms,
                                int suspect_after) {
  cluster::PoolConfig pc;
  pc.policy.min_workers = workers;
  pc.policy.max_workers = workers;
  pc.heartbeat_ms = heartbeat_ms;
  pc.suspect_after = suspect_after;
  return pc;
}

void wait_alive(cluster::WorkerPool& pool, int want) {
  for (int i = 0; i < 5000; ++i) {
    if (pool.alive_workers() >= want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  DSM_CHECK(false, "external workers never connected");
}

struct ChaosCell {
  std::uint64_t seed = 0;
  const char* kind = "";
  std::uint64_t dispatches = 0;
  std::uint64_t acks = 0;
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t hedge_losers = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t integrity_violations = 0;
  std::uint64_t workers_quarantined = 0;
  std::uint64_t redispatches = 0;
  std::uint64_t degraded_appends = 0;
  std::uint64_t non_durable_jobs = 0;
  double host_ms = 0;
};

/// Every dispatch must reach exactly one terminal.
void check_accounting(const svc::Metrics::Cluster& cl, const char* cell) {
  DSM_CHECK(cl.dispatches == cl.acks + cl.hedge_losers + cl.worker_deaths +
                                 cl.integrity_violations,
            std::string(cell) +
                ": dispatch accounting identity broken (a dispatch was "
                "lost or double-settled)");
}

ChaosCell cell_from(const svc::Metrics::Cluster& cl, std::uint64_t seed,
                    const char* kind, double host_ms) {
  ChaosCell c;
  c.seed = seed;
  c.kind = kind;
  c.dispatches = cl.dispatches;
  c.acks = cl.acks;
  c.hedges_issued = cl.hedges_issued;
  c.hedges_won = cl.hedges_won;
  c.hedge_losers = cl.hedge_losers;
  c.worker_deaths = cl.worker_deaths;
  c.integrity_violations = cl.integrity_violations;
  c.workers_quarantined = cl.workers_quarantined;
  c.redispatches = cl.redispatches;
  c.host_ms = host_ms;
  return c;
}

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
    const std::string out_path = args.get("out", "BENCH_chaos.json");
    const auto njobs =
        static_cast<std::size_t>(args.get_int("njobs", quick ? 5 : 8));
    const int nseeds = quick ? 1 : 2;

    bench::banner("Sort service: gray-failure chaos", env);

    char root_template[] = "/tmp/dsmsort_chaos_XXXXXX";
    const char* root = ::mkdtemp(root_template);
    DSM_CHECK(root != nullptr, "mkdtemp failed");

    std::vector<ChaosCell> cells;
    for (int s = 0; s < nseeds; ++s) {
      const std::uint64_t seed = env.seed + static_cast<std::uint64_t>(s);
      svc::LoadMix mix;
      mix.sizes = env.sizes;
      mix.procs = env.procs;
      const std::vector<svc::JobSpec> trace =
          svc::make_trace(seed, njobs, mix);

      // Single-process reference: the bytes every chaos run must match.
      svc::SortService local(service_config(njobs + 4));
      const std::string reference = replay_fingerprint(local, trace);
      DSM_CHECK(reference.find("\"status\": \"ok\"") != std::string::npos,
                "reference run produced no ok results");

      // Clean clustered baseline with the health protocol armed but a
      // suspect budget no scheduler hiccup can reach: pins the dispatch
      // demand (`acks` must equal this in every chaos cell) and proves
      // heartbeats alone do not perturb the bytes.
      std::uint64_t base_acks = 0;
      {
        cluster::WorkerPool pool(pool_config(2, 10, 250));
        svc::ServiceConfig cfg = service_config(njobs + 4);
        cfg.remote = &pool;
        svc::SortService svc(cfg);
        DSM_CHECK(pool.start().ok(), "baseline pool start failed");
        const std::string fp = replay_fingerprint(svc, trace);
        DSM_CHECK(fp == reference,
                  "heartbeat-armed clean run diverged from reference");
        const svc::Metrics::Cluster cl = svc.metrics().cluster();
        DSM_CHECK(cl.dispatches == cl.acks, "clean run lost a dispatch");
        DSM_CHECK(cl.integrity_violations == 0,
                  "clean run flagged an integrity violation");
        base_acks = cl.acks;
        pool.shutdown();
      }

      // --- Cell 1: SIGSTOP victim (stall -> suspect -> hedge). -------
      {
        const std::string sentinel = std::string(root) + "/stall_" +
                                     std::to_string(seed);
        const std::uint64_t victim = njobs / 2;
        cluster::PoolConfig pc = pool_config(2, 20, 2);
        pc.worker.crash_hook = [sentinel, victim](const char* /*site*/,
                                                  std::uint64_t seq) {
          if (seq != victim) return;
          const int fd =
              ::open(sentinel.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
          if (fd >= 0) {
            ::close(fd);
            ::raise(SIGSTOP);  // alive, socket open, nothing moves
          }
        };
        cluster::WorkerPool pool(pc);
        svc::ServiceConfig cfg = service_config(njobs + 4);
        cfg.remote = &pool;
        svc::SortService svc(cfg);
        DSM_CHECK(pool.start().ok(), "stall pool start failed");
        const double t0 = now_sec();
        const std::string fp = replay_fingerprint(svc, trace);
        const double ms = (now_sec() - t0) * 1e3;
        const svc::Metrics::Cluster cl = svc.metrics().cluster();
        DSM_CHECK(fp == reference,
                  "stall cell diverged from reference (seed " +
                      std::to_string(seed) + ")");
        check_accounting(cl, "stall");
        DSM_CHECK(cl.acks == base_acks,
                  "stall cell lost or double-executed a job");
        DSM_CHECK(cl.hedges_issued >= 1, "stalled worker was never hedged");
        DSM_CHECK(cl.hedges_won >= 1, "no hedge ever won");
        DSM_CHECK(cl.integrity_violations == 0,
                  "stall cell flagged a phantom integrity violation");
        DSM_CHECK(cl.workers_quarantined == 0,
                  "stall cell quarantined an innocent worker");
        cells.push_back(cell_from(cl, seed, "stall", ms));
        pool.shutdown();
      }

      // --- Cell 2: lying worker (end-to-end integrity). --------------
      {
        const std::string path = std::string(root) + "/liar_" +
                                 std::to_string(seed) + ".sock";
        cluster::PoolConfig pc = pool_config(2, 25, 40);
        pc.fork_workers = false;
        pc.integrity_strikes = 1;
        cluster::WorkerPool pool(pc);
        svc::ServiceConfig cfg = service_config(njobs + 4);
        cfg.remote = &pool;
        svc::SortService svc(cfg);
        DSM_CHECK(pool.serve(path).ok(), "liar pool serve failed");
        std::thread liar([&path] {
          Result<cluster::Channel> ch = cluster::connect_unix(path);
          if (!ch.ok()) return;
          cluster::WorkerOptions opts;
          opts.label = "liar";
          opts.lie = true;
          cluster::worker_main(std::move(*ch), opts);
        });
        wait_alive(pool, 1);  // the liar holds slot 0 -> leased first
        std::thread honest([&path] {
          Result<cluster::Channel> ch = cluster::connect_unix(path);
          if (!ch.ok()) return;
          cluster::WorkerOptions opts;
          opts.label = "honest";
          cluster::worker_main(std::move(*ch), opts);
        });
        wait_alive(pool, 2);

        const double t0 = now_sec();
        const std::string fp = replay_fingerprint(svc, trace);
        const double ms = (now_sec() - t0) * 1e3;
        const svc::Metrics::Cluster cl = svc.metrics().cluster();
        DSM_CHECK(fp == reference,
                  "a lying worker perturbed the deterministic output "
                  "(seed " +
                      std::to_string(seed) + ")");
        check_accounting(cl, "lie");
        DSM_CHECK(cl.acks == base_acks,
                  "lie cell lost or double-executed a job");
        DSM_CHECK(cl.integrity_violations == 1,
                  "expected exactly one caught lie, got " +
                      std::to_string(cl.integrity_violations));
        DSM_CHECK(cl.workers_quarantined == 1,
                  "the liar was not quarantined");
        DSM_CHECK(pool.quarantined_workers() == 1,
                  "quarantine hit an innocent bystander");
        DSM_CHECK(cl.worker_deaths == 0, "lying is not dying");
        cells.push_back(cell_from(cl, seed, "lie", ms));
        pool.shutdown();
        liar.join();
        honest.join();
        ::unlink(path.c_str());
      }

      // --- Cell 3: ENOSPC on the WAL (degraded durability). ----------
      {
        // Healthy non-durable live run: the results and calibration the
        // degraded run must still produce. (Live mode stamps host
        // latency, so the comparison is field-wise, not to_json.) Both
        // runs queue the whole trace before start(): calibrated planning
        // is batch-geometry-dependent by design (plans see whatever
        // observations earlier batches folded in), and a WAL-degraded
        // submit path paces admissions differently — pinning the
        // geometry isolates the invariant under test to durability.
        svc::SortService healthy(service_config(njobs + 4));
        for (const svc::JobSpec& j : trace) healthy.submit(j);
        healthy.start();
        healthy.drain();
        const std::vector<svc::JobResult> want = healthy.take_results();
        const std::string want_cal = healthy.planner().calibration_json();

        const std::string dir = std::string(root) + "/wal_" +
                                std::to_string(seed);
        svc::ServiceConfig cfg = service_config(njobs + 4);
        cfg.durability.dir = dir;
        svc::SortService durable(cfg);  // journal opens on a healthy disk
        FsFaultConfig faults;
        faults.seed = seed;
        faults.rate = 1.0;  // then every WAL write/fsync fails
        set_fs_fault_config(faults);
        const double t0 = now_sec();
        for (const svc::JobSpec& j : trace) {
          const svc::Admission a = durable.submit(j);
          DSM_CHECK(a == svc::Admission::kAccepted,
                    "degraded service refused a job");
        }
        durable.start();
        durable.drain();
        const double ms = (now_sec() - t0) * 1e3;
        set_fs_fault_config(FsFaultConfig{});

        const std::vector<svc::JobResult> got = durable.take_results();
        DSM_CHECK(got.size() == want.size(), "degraded run lost a job");
        for (std::size_t i = 0; i < got.size(); ++i) {
          DSM_CHECK(got[i].id == want[i].id &&
                        got[i].status == svc::JobStatus::kOk &&
                        got[i].verified &&
                        got[i].measured_ns == want[i].measured_ns,
                    "degraded durability perturbed job results (seed " +
                        std::to_string(seed) + ", index " +
                        std::to_string(i) + ")");
        }
        DSM_CHECK(durable.planner().calibration_json() == want_cal,
                  "degraded durability perturbed calibration");
        const svc::Metrics::DiskHealth dh = durable.metrics().disk_health();
        DSM_CHECK(dh.degraded_appends > 0,
                  "WAL faults fired but nothing was counted degraded");
        DSM_CHECK(dh.non_durable_jobs == njobs,
                  "every job rode a degraded batch; counted " +
                      std::to_string(dh.non_durable_jobs));
        ChaosCell c;
        c.seed = seed;
        c.kind = "wal";
        c.acks = got.size();
        c.degraded_appends = dh.degraded_appends;
        c.non_durable_jobs = dh.non_durable_jobs;
        c.host_ms = ms;
        cells.push_back(c);
      }

      // --- Cell 4: mixed kill + stall in one run. --------------------
      {
        const std::string skill = std::string(root) + "/mixed_kill_" +
                                  std::to_string(seed);
        const std::string sstall = std::string(root) + "/mixed_stall_" +
                                   std::to_string(seed);
        const std::uint64_t kill_victim = njobs > 1 ? 1 : 0;
        const std::uint64_t stall_victim = njobs - 2;
        cluster::PoolConfig pc = pool_config(2, 20, 2);
        pc.worker.crash_hook = [skill, sstall, kill_victim, stall_victim](
                                   const char* /*site*/, std::uint64_t seq) {
          if (seq == kill_victim) {
            const int fd =
                ::open(skill.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
            if (fd >= 0) ::_exit(137);
          }
          if (seq == stall_victim) {
            const int fd =
                ::open(sstall.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
            if (fd >= 0) {
              ::close(fd);
              ::raise(SIGSTOP);
            }
          }
        };
        cluster::WorkerPool pool(pc);
        svc::ServiceConfig cfg = service_config(njobs + 4);
        cfg.remote = &pool;
        svc::SortService svc(cfg);
        DSM_CHECK(pool.start().ok(), "mixed pool start failed");
        const double t0 = now_sec();
        const std::string fp = replay_fingerprint(svc, trace);
        const double ms = (now_sec() - t0) * 1e3;
        const svc::Metrics::Cluster cl = svc.metrics().cluster();
        DSM_CHECK(fp == reference,
                  "mixed kill+stall cell diverged from reference (seed " +
                      std::to_string(seed) + ")");
        check_accounting(cl, "mixed");
        DSM_CHECK(cl.acks == base_acks,
                  "mixed cell lost or double-executed a job");
        DSM_CHECK(cl.worker_deaths >= 1, "the killed worker never died");
        DSM_CHECK(cl.hedges_issued >= 1,
                  "the stalled worker was never hedged");
        DSM_CHECK(cl.integrity_violations == 0,
                  "mixed cell flagged a phantom integrity violation");
        DSM_CHECK(cl.workers_quarantined == 0,
                  "mixed cell quarantined an innocent worker");
        cells.push_back(cell_from(cl, seed, "mixed", ms));
        pool.shutdown();
      }

      std::cout << "  seed " << seed
                << ": stall/lie/wal/mixed all byte-identical, "
                << base_acks << " acks per run\n";
    }

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"service_chaos\",\n"
       << "  \"config\": {\"njobs\": " << njobs << ", \"seed\": " << env.seed
       << ", \"seeds\": " << nseeds
       << ", \"quick\": " << (quick ? "true" : "false") << "},\n"
       << "  \"invariants\": {\"replay_byte_identical\": true, "
       << "\"no_lost_job\": true, "
       << "\"no_double_execution\": true, "
       << "\"dispatch_accounting_identity\": true, "
       << "\"liar_quarantined_zero_bystanders\": true, "
       << "\"degraded_durability_keeps_serving\": true},\n"
       << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const ChaosCell& c = cells[i];
      js << "    {\"seed\": " << c.seed << ", \"cell\": \"" << c.kind
         << "\", \"dispatches\": " << c.dispatches
         << ", \"acks\": " << c.acks
         << ", \"hedges_issued\": " << c.hedges_issued
         << ", \"hedges_won\": " << c.hedges_won
         << ", \"hedge_losers\": " << c.hedge_losers
         << ", \"worker_deaths\": " << c.worker_deaths
         << ", \"integrity_violations\": " << c.integrity_violations
         << ", \"workers_quarantined\": " << c.workers_quarantined
         << ", \"redispatches\": " << c.redispatches
         << ", \"degraded_appends\": " << c.degraded_appends
         << ", \"non_durable_jobs\": " << c.non_durable_jobs
         << ", \"host_ms\": " << fmt_fixed(c.host_ms, 1) << "}"
         << (i + 1 < cells.size() ? ",\n" : "\n");
    }
    js << "  ]\n"
       << "}\n";
    write_file_atomic(out_path, js.str());
    std::cout << "(json written to " << out_path << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
