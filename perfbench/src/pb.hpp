// Shared pieces of the dsmsort benchmark (perfbench): options, the result
// report, latency statistics, host-span timelines, and the input checks
// every workload applies to the program's outputs.
//
// The benchmark drives the library from outside: it calls the public entry
// points (sort::try_run_sort, svc::SortService, cluster::WorkerPool) and
// records every host span in its own code, at the hooks the library already
// exposes (SortHooks::on_site, DurabilityConfig::crash_hook, the
// RemoteExecutor seam). Nothing here is compiled into the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "keys/distributions.hpp"
#include "sort/sort_api.hpp"
#include "sort/verify.hpp"
#include "svc/job.hpp"

namespace pb {

using dsm::Index;
using dsm::Key;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes and short phases: the benchmark's own tests.
  bool smoke = false;
  int nproc = 1;
  /// Scratch directory inside the checkout (WAL directories live here).
  std::string work_dir;
};

/// Median plus the highest percentile that still has at least ten samples
/// beyond it (with fewer than eleven samples: the maximum).
struct TailStats {
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
  std::size_t samples = 0;
};
TailStats tail_stats(std::vector<double> v);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// One run's output: metrics in order, the correctness verdict, and the
/// informational fields printed on the line before the result.
class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& json_value);
  void info_num(const std::string& key, double value);
  /// A correctness failure: the run reports correct=false and exits 1.
  void fail(const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct() const { return errors_.empty(); }

  /// The info line (one JSON object) and the result line (the last line
  /// of stdout).
  std::string info_line() const;
  std::string result_line() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> errors_;
};

std::string json_num(double v);

/// Host-time stamps of named sites, in the order they fired.
struct Stamp {
  std::string site;
  double t = 0;
};

/// Host spans summed by name across many timelines.
class SpanTable {
 public:
  void add(const std::string& name, double seconds);
  double total_s(const std::string& name) const;
  double total_all_s() const;

 private:
  std::map<std::string, double> totals_;
};

/// Split one sort call's stamps into the spans the report names: "setup"
/// (call to the keygen checkpoint), "keygen" (to the first phase mark),
/// each phase "phase.<name>" (mark to next mark), and "verify" (the verify
/// checkpoint to return). `t_call`/`t_return` bracket the call.
void sort_spans(const std::vector<Stamp>& stamps, double t_call,
                double t_return, SpanTable& out);

/// The report's name for a phase: spaces become underscores.
std::string phase_key(const std::string& phase);

/// The phases every algorithm marks (the paper's vocabulary, as the sort
/// runners name them), in the order the report prints them.
const std::vector<std::string>& known_phases();

/// The benchmark's own input for a (dist, n, p, radix, seed) job: every
/// rank's partition generated with keys::generate exactly as the sort lays
/// it out, concatenated in rank order.
std::vector<Key> own_input(dsm::keys::Dist dist, Index n, int nprocs,
                           int radix_bits, std::uint64_t seed);

bool same_checksum(const dsm::sort::Checksum& a, const dsm::sort::Checksum& b);

/// Host seconds (median of repetitions) of a plain sequential LSD radix
/// sort (radix 8) of a copy of `keys`; fails `report` when the copy does
/// not come out sorted.
double baseline_sort_s(const std::vector<Key>& keys, Report& report);

/// Peak resident set in MB: the larger of this process's and its largest
/// reaped child's.
double peak_rss_mb();

/// The name a model has in per-layer metric names.
std::string model_key(dsm::sort::Model m);

/// Algorithm x model x radix cell a job ran on (plan-mix guard key).
std::string cell_key(dsm::sort::Algo a, dsm::sort::Model m, int radix_bits);

/// Provenance of a run: host, kernel ISA, build, engine, kernel backend,
/// and the source revision the launcher passes in.
std::string provenance_json(const Options& opt);

/// Every per-layer metric, in print order, each starting at 0. A workload
/// sets the ones its layers exercise; the rest print as 0, meaning "this
/// workload does not reach that layer" (perfbench/README.md has the table).
class LayerSet {
 public:
  LayerSet();
  /// Throws on a name that is not in the list (a typo would otherwise
  /// print a stale 0 forever).
  void set(const std::string& name, double value);
  void emit(Report& report) const;

 private:
  std::vector<std::pair<std::string, std::string>> names_;  // name, unit
  std::map<std::string, double> values_;
};

/// One direct sort call as the benchmark saw it.
struct SortRun {
  dsm::sort::Algo algo = dsm::sort::Algo::kRadix;
  dsm::sort::Model model = dsm::sort::Model::kShmem;
  Index n = 0;
  double wall_s = 0;
  double keygen_s = 0;  // keygen checkpoint to the first phase mark
  double virtual_ns = 0;
  dsm::sim::Breakdown virtual_sum;  // summed over simulated processes
};

/// Host spans and per-key costs of the sort layer, accumulated over runs.
class SortLayer {
 public:
  void add(const SortRun& r, const std::vector<Stamp>& stamps, double t_call,
           double t_return);
  std::size_t sorts() const { return sorts_; }
  const SpanTable& spans() const { return spans_; }
  /// sort.setup/keygen/phase.*/verify spans, per-algorithm and per-model
  /// ns/key, and sim.virtual_* (per sort, summed over processes).
  void emit(LayerSet& layers) const;

 private:
  SpanTable spans_;
  std::size_t sorts_ = 0;
  std::map<std::string, std::pair<double, double>> by_algo_;   // s, keys
  std::map<std::string, std::pair<double, double>> by_model_;  // s, keys
  dsm::sim::Breakdown virtual_sum_;
};

/// Run `spec` once with host stamps at every SortHooks::on_site checkpoint
/// (with `full` false only the two stamps the keygen span needs). Checks
/// the output: ok, verified, and the input checksum the sort consumed equal
/// to `expect`; any failure is reported and returns false.
bool run_checked_sort(dsm::sort::SortSpec spec,
                      const dsm::sort::Checksum& expect, bool full,
                      Report& report, SortRun& run,
                      std::vector<Stamp>& stamps, double& t_call,
                      double& t_return);

// Workload entry points (service_load.cpp, algo_grid.cpp).
void run_service_workload(const Options& opt, Report& report);
void run_algo_grid(const Options& opt, Report& report);

}  // namespace pb
