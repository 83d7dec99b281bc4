// Degradation benchmark for the sort service's robustness machinery:
// measures how gracefully the service sheds load and absorbs injected
// faults when offered 2x its admission capacity.
//
// Three phases:
//   1. Unloaded baseline — the job mix replayed with no faults and no
//      deadlines; its virtual-time percentiles anchor the deadlines.
//   2. Overload — a burst of 2x queue capacity jobs, every job carrying a
//      virtual deadline (2x the unloaded p50) and a 10% per-site fault
//      rate; a quarter of the jobs are critical-priority (exempt from
//      shedding). The service must keep the p99 of jobs it *accepts and
//      completes on time* within 2x the unloaded p99 — the deadline
//      shedder eats the tail instead of serving it late (checked).
//   3. Replay selfcheck — the overload trace replayed with the same fault
//      seed at 1 and 4 workers must produce byte-identical JSON: faults,
//      retries, sheds, and deadline misses are all deterministic.
//
// Writes BENCH_faults.json.
//
// Options: the common set (--sizes/--procs/--seed/--jobs) plus
//   --quick          small sizes + short trace (the ctest wiring)
//   --njobs N        unloaded trace length (default 48; 16 with --quick)
//   --capacity N     service queue capacity (default 16; 8 with --quick)
//   --fault-rate R   per-site fault probability (default 0.10)
//   --out PATH       where to write the JSON (default BENCH_faults.json)
//   --replay PATH    replay a trace file with the fault matrix armed;
//                    deterministic-only JSON, byte-identical for any --jobs
//   --write-trace PATH  dump the generated overload trace
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "perf/report.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace {

using namespace dsm;
using Scope = svc::Metrics::Scope;

svc::ServiceConfig service_config(std::size_t capacity, int workers,
                                  std::uint64_t fault_seed,
                                  double fault_rate) {
  svc::ServiceConfig cfg;
  cfg.queue_capacity = capacity;
  cfg.workers = workers;
  cfg.max_batch = std::min(cfg.max_batch, capacity);
  cfg.faults.seed = fault_seed;
  cfg.faults.rate = fault_rate;
  // A sort attempt is evaluated at every phase mark, so a 10% per-site
  // rate compounds into a large per-attempt failure probability; give the
  // retry loop one extra attempt over the production default.
  cfg.max_attempts = 4;
  return cfg;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Virtual-time microseconds of every job that completed on time.
std::vector<double> ok_virt_us(const std::vector<svc::JobResult>& results) {
  std::vector<double> us;
  for (const svc::JobResult& r : results) {
    if (r.status == svc::JobStatus::kOk) us.push_back(r.measured_ns / 1e3);
  }
  return us;
}

/// Everything deterministic a replay produced, as one JSON document.
std::string replay_json(svc::SortService& svc,
                        const std::vector<svc::JobResult>& results) {
  std::ostringstream os;
  os << "{\n  \"bench\": \"service_faults_replay\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "    " << results[i].to_json()
       << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"metrics\": " << svc.metrics().json(Scope::kDeterministic)
     << ",\n  \"calibration\": " << svc.planner().calibration_json()
     << "\n}\n";
  return os.str();
}

std::string run_replay(const std::vector<svc::JobSpec>& trace,
                       std::size_t capacity, int workers,
                       std::uint64_t fault_seed, double fault_rate) {
  svc::SortService svc(
      service_config(capacity, workers, fault_seed, fault_rate));
  const std::vector<svc::JobResult> results = svc.replay(trace);
  return replay_json(svc, results);
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
        argc, argv, quick ? "16K,64K" : "256K,1M,4M",
        quick ? "4,8" : "16,32",
        {"quick", "out", "njobs", "capacity", "fault-rate", "replay",
         "write-trace"});
    ArgParser args(argc, argv);
    const std::string out_path = args.get("out", "BENCH_faults.json");
    const auto njobs =
        static_cast<std::size_t>(args.get_int("njobs", quick ? 16 : 48));
    const auto capacity =
        static_cast<std::size_t>(args.get_int("capacity", quick ? 8 : 16));
    const double fault_rate = args.get_double("fault-rate", 0.10);
    const std::uint64_t fault_seed = env.seed + 77;
    const std::string replay_path = args.get("replay", "");
    const std::string trace_out = args.get("write-trace", "");

    if (!replay_path.empty()) {
      // Replay mode: deterministic output only — byte-identical for any
      // --jobs value, faults and all.
      const std::vector<svc::JobSpec> trace = svc::read_trace(replay_path);
      write_file_atomic(out_path, run_replay(trace, capacity, env.jobs,
                                            fault_seed, fault_rate));
      std::cout << "replayed " << trace.size() << " jobs from " << replay_path
                << " with " << env.jobs << " worker(s)\n(json written to "
                << out_path << ")\n";
      return 0;
    }

    bench::banner("Sort service: degradation under overload + faults", env);

    svc::LoadMix mix;
    mix.sizes = env.sizes;
    mix.procs = env.procs;

    // Phase 1: unloaded baseline — no faults, no deadlines, replay path
    // (synchronous rounds, no queueing): pure execution percentiles.
    const std::vector<svc::JobSpec> base_trace =
        svc::make_trace(env.seed, njobs, mix);
    svc::SortService base(service_config(capacity, env.jobs, 0, 0));
    const std::vector<svc::JobResult> base_results = base.replay(base_trace);
    const std::vector<double> base_us = ok_virt_us(base_results);
    const double base_p50 = percentile(base_us, 0.50);
    const double base_p99 = percentile(base_us, 0.99);
    DSM_CHECK(!base_us.empty(), "unloaded baseline produced no ok jobs");
    std::cout << "  unloaded: " << base_us.size() << "/" << base_trace.size()
              << " ok, virtual p50 " << fmt_fixed(base_p50, 1) << " us, p99 "
              << fmt_fixed(base_p99, 1) << " us\n";

    // Phase 2: overload — 2x admission capacity in one burst, deadlines
    // at the unloaded p50 (so the expensive half of the mix cannot fit),
    // 25% critical jobs, and the fault matrix armed at every site.
    const std::size_t overload_jobs = 2 * capacity;
    svc::LoadMix overload_mix = mix;
    overload_mix.deadlines_us = {
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(base_p50))};
    overload_mix.priorities = {0, 0, 0, svc::kCriticalPriority};
    const std::vector<svc::JobSpec> overload_trace =
        svc::make_trace(env.seed + 1, overload_jobs, overload_mix);
    if (!trace_out.empty()) {
      svc::write_trace(trace_out, overload_trace);
      std::cout << "(trace written to " << trace_out << ")\n";
    }

    svc::SortService over(
        service_config(capacity, env.jobs, fault_seed, fault_rate));
    over.start();
    std::size_t live_rejected = 0;
    for (const svc::JobSpec& job : overload_trace) {
      if (over.submit(job) != svc::Admission::kAccepted) ++live_rejected;
    }
    over.drain();
    const std::vector<svc::JobResult> over_results = over.take_results();
    const svc::Metrics::Counters oc = over.metrics().counters();

    const std::vector<double> over_us = ok_virt_us(over_results);
    const double over_p50 = percentile(over_us, 0.50);
    const double over_p99 = percentile(over_us, 0.99);
    const double shed_rate =
        oc.accepted > 0
            ? static_cast<double>(oc.shed) / static_cast<double>(oc.accepted)
            : 0;
    const double retry_success_rate =
        oc.retry_attempts > 0 ? static_cast<double>(oc.retry_successes) /
                                    static_cast<double>(oc.retry_attempts)
                              : 0;
    std::cout << "  overload (" << overload_jobs << " jobs at capacity "
              << capacity << ", fault rate " << fmt_fixed(fault_rate, 2)
              << "): " << over_us.size() << " ok, " << oc.shed << " shed, "
              << oc.deadline_miss << " deadline-miss, " << oc.failed
              << " failed, " << live_rejected << " rejected\n"
              << "  overload ok jobs: virtual p50 " << fmt_fixed(over_p50, 1)
              << " us, p99 " << fmt_fixed(over_p99, 1) << " us (unloaded p99 "
              << fmt_fixed(base_p99, 1) << " us)\n"
              << "  retries: " << oc.retry_attempts << " attempts, "
              << oc.retry_successes << " jobs saved (success rate "
              << fmt_fixed(retry_success_rate, 2) << ")\n";

    // The acceptance gate: what the service *serves* under overload must
    // not degrade past 2x the unloaded tail — shedding, not late service,
    // absorbs the excess.
    const bool p99_bounded = over_us.empty() || over_p99 <= 2 * base_p99;
    DSM_CHECK(p99_bounded,
              "overload p99 of accepted jobs exceeded 2x the unloaded p99");
    DSM_CHECK(oc.shed > 0,
              "overload with tight deadlines shed nothing — the predictive "
              "shedder is not engaging");

    // Phase 3: replay determinism — same trace, same fault seed, 1 vs 4
    // workers, byte-identical output (results, metrics, calibration).
    const std::string one =
        run_replay(overload_trace, capacity, 1, fault_seed, fault_rate);
    const std::string four =
        run_replay(overload_trace, capacity, 4, fault_seed, fault_rate);
    DSM_CHECK(one == four, "replay output differs between 1 and 4 workers");
    std::cout << "  replay selfcheck: 1 vs 4 workers byte-identical\n";

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"service_faults\",\n"
       << "  \"config\": {\"njobs\": " << njobs
       << ", \"overload_jobs\": " << overload_jobs
       << ", \"capacity\": " << capacity << ", \"workers\": " << env.jobs
       << ", \"seed\": " << env.seed << ", \"fault_seed\": " << fault_seed
       << ", \"fault_rate\": " << fmt_fixed(fault_rate, 3)
       << ", \"deadline_us\": " << overload_mix.deadlines_us[0]
       << ", \"quick\": " << (quick ? "true" : "false") << "},\n"
       << "  \"unloaded\": {\"ok\": " << base_us.size()
       << ", \"virtual_us\": {\"p50\": " << fmt_fixed(base_p50, 3)
       << ", \"p99\": " << fmt_fixed(base_p99, 3) << "}},\n"
       << "  \"overload\": {\"offered\": " << overload_jobs
       << ", \"ok\": " << over_us.size() << ", \"shed\": " << oc.shed
       << ", \"deadline_miss\": " << oc.deadline_miss
       << ", \"failed\": " << oc.failed
       << ", \"rejected_full\": " << oc.rejected_full
       << ", \"rejected_fault\": " << oc.rejected_fault
       << ", \"shed_rate\": " << fmt_fixed(shed_rate, 4)
       << ", \"retry_attempts\": " << oc.retry_attempts
       << ", \"retry_successes\": " << oc.retry_successes
       << ", \"retry_success_rate\": " << fmt_fixed(retry_success_rate, 4)
       << ", \"virtual_us\": {\"p50\": " << fmt_fixed(over_p50, 3)
       << ", \"p99\": " << fmt_fixed(over_p99, 3)
       << "}, \"p99_within_2x_unloaded\": "
       << (p99_bounded ? "true" : "false") << "},\n"
       << "  \"replay_selfcheck\": \"byte-identical\",\n"
       << "  \"metrics\": " << over.metrics().json(Scope::kDeterministic)
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
