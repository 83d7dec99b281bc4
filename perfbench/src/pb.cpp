#include "pb.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/team.hpp"
#include "sas/shared_array.hpp"
#include "sort/kernels.hpp"
#include "sort/seq_radix.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace pb {

using namespace dsm;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

TailStats tail_stats(std::vector<double> v) {
  TailStats s;
  s.samples = v.size();
  if (v.empty()) return s;
  s.p50 = median(v);
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n >= 11) {
    // Index n-11 has exactly ten samples above it.
    s.tail = v[n - 11];
    s.tail_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    s.tail = v.back();
    s.tail_pct = 100.0;
  }
  return s;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::put(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::info(const std::string& key, const std::string& json_value) {
  info_.push_back({key, json_value});
}

void Report::info_num(const std::string& key, double value) {
  info(key, json_num(value));
}

void Report::fail(const std::string& why) {
  // Keep the first few reasons; a systematic defect repeats per job.
  if (errors_.size() < 16) errors_.push_back(why);
  else if (errors_.size() == 16) errors_.push_back("...");
}

std::string Report::info_line() const {
  std::ostringstream os;
  os << "{\"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(info_[i].first)
       << "\": " << info_[i].second;
  }
  os << "}, \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(errors_[i]) << "\"";
  }
  os << "]}";
  return os.str();
}

std::string Report::result_line() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    os << (i ? ", " : "") << "\"" << json_escape(name)
       << "\": {\"value\": " << json_num(vu.first) << ", \"unit\": \""
       << json_escape(vu.second) << "\"}";
  }
  os << "}}";
  return os.str();
}

void SpanTable::add(const std::string& name, double seconds) {
  totals_[name] += seconds;
}

double SpanTable::total_s(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

double SpanTable::total_all_s() const {
  double t = 0;
  for (const auto& [name, s] : totals_) t += s;
  return t;
}

std::string phase_key(const std::string& phase) {
  std::string k = phase;
  std::replace(k.begin(), k.end(), ' ', '_');
  return k;
}

const std::vector<std::string>& known_phases() {
  static const std::vector<std::string> phases = {
      "local histogram", "global histogram", "permutation",
      "redistribution",  "local sort 1",     "sampling",
      "splitters",       "partition",        "local sort 2",
      "barrier"};
  return phases;
}

void sort_spans(const std::vector<Stamp>& stamps, double t_call,
                double t_return, SpanTable& out) {
  // Stamps run: keygen, <phase marks...>, verify.
  double prev_t = t_call;
  std::string prev = "setup";
  for (const Stamp& s : stamps) {
    out.add(prev, s.t - prev_t);
    if (s.site == "keygen" || s.site == "verify") {
      prev = s.site;
    } else {
      prev = "phase." + phase_key(s.site);
    }
    prev_t = s.t;
  }
  out.add(prev, t_return - prev_t);
}

std::vector<Key> own_input(keys::Dist dist, Index n, int nprocs,
                           int radix_bits, std::uint64_t seed) {
  std::vector<Key> keys(static_cast<std::size_t>(n));
  const sas::HomeMap homes(n, nprocs);
  for (int r = 0; r < nprocs; ++r) {
    keys::GenSpec gs;
    gs.n_total = n;
    gs.global_begin = homes.begin_of(r);
    gs.rank = r;
    gs.nprocs = nprocs;
    gs.radix_bits = radix_bits;
    gs.seed = seed;
    keys::generate(dist,
                   std::span<Key>(keys.data() + homes.begin_of(r),
                                  static_cast<std::size_t>(homes.count_of(r))),
                   gs);
  }
  return keys;
}

bool same_checksum(const sort::Checksum& a, const sort::Checksum& b) {
  return a.count == b.count && a.sum == b.sum && a.xor_ == b.xor_;
}

double baseline_sort_s(const std::vector<Key>& keys, Report& report) {
  std::vector<double> reps;
  std::vector<Key> copy(keys.size());
  std::vector<Key> tmp(keys.size());
  // Repeat until the repetitions add up to 25 ms (at least five of them)
  // or to 0.2 s, so a sub-millisecond sort is timed over ~100 runs and one
  // preemption cannot move the median, while a 16M-key sort runs once.
  double total = 0;
  do {
    std::copy(keys.begin(), keys.end(), copy.begin());
    const double t0 = now_s();
    sort::seq_radix_sort(copy, tmp, 8);
    reps.push_back(now_s() - t0);
    total += reps.back();
    if (!std::is_sorted(copy.begin(), copy.end())) {
      report.fail("seq_radix_sort baseline output is not sorted");
    }
  } while (total < 0.2 && (reps.size() < 5 || total < 0.025));
  return median(reps);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string model_key(sort::Model m) {
  switch (m) {
    case sort::Model::kCcSas: return "ccsas";
    case sort::Model::kCcSasNew: return "ccsas_new";
    case sort::Model::kMpi: return "mpi";
    case sort::Model::kShmem: return "shmem";
  }
  return "unknown";
}

std::string cell_key(sort::Algo a, sort::Model m, int radix_bits) {
  return std::string(sort::algo_name(a)) + "/" + sort::model_name(m) + "/r" +
         std::to_string(radix_bits);
}

std::string provenance_json(const Options& opt) {
  const char* rev = std::getenv("PERFBENCH_REVISION");
  std::ostringstream os;
  os << "{\"nproc\": " << opt.nproc << ", \"kernel_isa\": \""
     << sort::kernel_isa_name() << "\", \"build_type\": \"" << PB_BUILD_TYPE
     << "\", \"engine\": \"" << engine_name(default_spmd_engine())
     << "\", \"kernel_backend\": \""
     << sort::kernel_backend_name(sort::default_kernel_backend())
     << "\", \"revision\": \"" << json_escape(rev != nullptr ? rev : "unknown")
     << "\"}";
  return os.str();
}

LayerSet::LayerSet() {
  auto add = [this](const std::string& name, const char* unit) {
    names_.push_back({name, unit});
    values_[name] = 0;
  };
  add("keys.gen_ns_per_key", "ns/key");
  add("keys.fingerprint_ms_per_job", "ms");
  add("sort.setup_ms", "ms");
  add("sort.keygen_ms", "ms");
  for (const std::string& p : known_phases()) {
    add("sort.phase." + phase_key(p) + "_ms", "ms");
  }
  add("sort.verify_ms", "ms");
  for (const auto& e : sort::kAlgoNames) {
    add(std::string("sort.") + e.name + ".host_ns_per_key", "ns/key");
  }
  for (const auto& e : sort::kModelNames) {
    add("sort.model." + model_key(e.value) + ".host_ns_per_key", "ns/key");
  }
  add("sort.baseline_ns_per_key", "ns/key");
  for (const char* a : {"radix", "msd", "merge"}) {
    add(std::string("sort.") + a + ".host_vs_sample_x", "x");
  }
  for (const char* a : {"radix", "msd", "merge"}) {
    add(std::string("sort.") + a + ".virtual_vs_sample_x", "x");
  }
  add("sort.input_cache.hit_ratio", "fraction");
  for (const char* c : {"busy", "lmem", "rmem", "sync"}) {
    add(std::string("sim.virtual_") + c + "_ms", "ms");
  }
  add("perf.plan_us", "us");
  for (const auto& e : sort::kAlgoNames) {
    add(std::string("perf.pred_rel_err.") + e.name, "fraction");
  }
  add("svc.submit_us", "us");
  add("svc.plan_mix_tvd", "fraction");
  add("svc.journal.fsync_us", "us");
  add("svc.journal.records_per_job", "count");
  add("svc.journal.latency_share", "fraction");
  add("svc.snapshot_ms", "ms");
  add("svc.exec_ms", "ms");
  add("svc.overhead_ms", "ms");
  add("cluster.attempt_ms", "ms");
  add("cluster.worker_busy_frac", "fraction");
  add("cluster.acks_per_dispatch", "count");
  add("cluster.dispatch_ack_us_p50", "us");
  add("cluster.heartbeats_per_job", "count");
  add("trace.overhead_frac", "fraction");
  add("trace.unattributed_frac", "fraction");
}

void LayerSet::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::runtime_error("unknown per-layer metric " + name);
  }
  it->second = value;
}

void LayerSet::emit(Report& report) const {
  for (const auto& [name, unit] : names_) {
    report.put(name, values_.at(name), unit);
  }
}

void SortLayer::add(const SortRun& r, const std::vector<Stamp>& stamps,
                    double t_call, double t_return) {
  sort_spans(stamps, t_call, t_return, spans_);
  ++sorts_;
  const auto keys = static_cast<double>(r.n);
  auto& a = by_algo_[sort::algo_name(r.algo)];
  a.first += r.wall_s;
  a.second += keys;
  auto& m = by_model_[model_key(r.model)];
  m.first += r.wall_s;
  m.second += keys;
  virtual_sum_ += r.virtual_sum;
}

void SortLayer::emit(LayerSet& layers) const {
  if (sorts_ == 0) return;
  const double per = 1e3 / static_cast<double>(sorts_);  // s -> ms per sort
  layers.set("sort.setup_ms", spans_.total_s("setup") * per);
  layers.set("sort.keygen_ms", spans_.total_s("keygen") * per);
  for (const std::string& p : known_phases()) {
    layers.set("sort.phase." + phase_key(p) + "_ms",
               spans_.total_s("phase." + phase_key(p)) * per);
  }
  layers.set("sort.verify_ms", spans_.total_s("verify") * per);
  for (const auto& [name, sk] : by_algo_) {
    layers.set("sort." + name + ".host_ns_per_key", sk.first * 1e9 / sk.second);
  }
  for (const auto& [name, sk] : by_model_) {
    layers.set("sort.model." + name + ".host_ns_per_key",
               sk.first * 1e9 / sk.second);
  }
  const double vper = 1e-6 / static_cast<double>(sorts_);  // ns -> ms per sort
  layers.set("sim.virtual_busy_ms", virtual_sum_.busy_ns * vper);
  layers.set("sim.virtual_lmem_ms", virtual_sum_.lmem_ns * vper);
  layers.set("sim.virtual_rmem_ms", virtual_sum_.rmem_ns * vper);
  layers.set("sim.virtual_sync_ms", virtual_sum_.sync_ns * vper);
}

bool run_checked_sort(sort::SortSpec spec, const sort::Checksum& expect,
                      bool full, Report& report, SortRun& run,
                      std::vector<Stamp>& stamps, double& t_call,
                      double& t_return) {
  stamps.clear();
  const std::size_t keep = full ? SIZE_MAX : 2;
  spec.hooks.on_site = [&stamps, keep](const char* site, double) {
    if (stamps.size() < keep) stamps.push_back(Stamp{site, now_s()});
  };
  run = SortRun{};
  run.algo = spec.algo;
  run.model = spec.model;
  run.n = spec.n;
  const std::string what = cell_key(spec.algo, spec.model, spec.radix_bits) +
                           " n=" + std::to_string(spec.n) + " p=" +
                           std::to_string(spec.nprocs) + " " +
                           keys::dist_name(spec.dist);
  t_call = now_s();
  Result<sort::SortResult> r = sort::try_run_sort(spec);
  t_return = now_s();
  run.wall_s = t_return - t_call;
  if (!r.ok()) {
    report.fail(what + ": " + r.status().to_string());
    return false;
  }
  if (!r->verified) {
    report.fail(what + ": output not verified");
    return false;
  }
  if (!same_checksum(r->input_checksum, expect)) {
    report.fail(what + ": consumed-input checksum differs from keys::generate");
    return false;
  }
  if (stamps.size() >= 2 && stamps[0].site == "keygen") {
    run.keygen_s = stamps[1].t - stamps[0].t;
  }
  run.virtual_ns = r->elapsed_ns;
  for (const sim::Breakdown& b : r->per_proc) run.virtual_sum += b;
  return true;
}

}  // namespace pb
