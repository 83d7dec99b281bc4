// algo-grid: direct sort::try_run_sort calls on one thread, no service.
//
// Every feasible algorithm x model cell (13) runs on gauss, dup and
// almost-sorted keys at n = 256K (1 MB, inside a 2 MB per-core L2) and 1M
// (4 MB, past L2, inside the shared L3), p in {16, 64}; each input also
// gets a plain seq_radix_sort baseline. This bypasses svc, the planner
// and the cluster, and reaches the LSD kernels, CC-SAS-NEW and MPI paths
// and merge, which the planner rarely picks on paper-mix.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "pb.hpp"
#include "sort/input_cache.hpp"
#include "svc/planner.hpp"

namespace pb {
namespace {

using namespace dsm;

struct GridInput {
  keys::Dist dist = keys::Dist::kGauss;
  Index n = 0;
  int nprocs = 1;
  std::uint64_t seed = 1;
  std::vector<Key> keys;
  sort::Checksum checksum;
  double gen_s = 0;       // keys::generate of every partition
  double checksum_s = 0;  // checksum_of over the whole input
};

struct Cell {
  std::size_t input = 0;
  sort::Algo algo = sort::Algo::kRadix;
  sort::Model model = sort::Model::kShmem;
};

struct CellResult {
  bool ok = false;
  SortRun run;
  /// seq_radix_sort of the cell's input, timed just before the input's
  /// first cell in the same pass, so host-speed drift cancels in ratios.
  double baseline_s = 0;
};

std::vector<GridInput> make_inputs(const Options& opt) {
  const std::vector<keys::Dist> dists = {keys::Dist::kGauss, keys::Dist::kDup,
                                         keys::Dist::kAlmostSorted};
  const std::vector<Index> sizes =
      opt.smoke ? std::vector<Index>{Index{1} << 14}
                : std::vector<Index>{Index{1} << 18, Index{1} << 20};
  const std::vector<int> procs =
      opt.smoke ? std::vector<int>{4} : std::vector<int>{16, 64};
  std::vector<GridInput> inputs;
  for (const Index n : sizes) {
    for (const int p : procs) {
      for (const keys::Dist d : dists) {
        GridInput in;
        in.dist = d;
        in.n = n;
        in.nprocs = p;
        in.seed = mix_seed(opt.seed, inputs.size()) | 1;
        double t0 = now_s();
        in.keys = own_input(d, n, p, 8, in.seed);
        in.gen_s = now_s() - t0;
        t0 = now_s();
        in.checksum = sort::checksum_of(in.keys);
        in.checksum_s = now_s() - t0;
        inputs.push_back(std::move(in));
      }
    }
  }
  return inputs;
}

std::vector<Cell> make_cells(const std::vector<GridInput>& inputs) {
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (const auto& a : sort::kAlgoNames) {
      for (const auto& m : sort::kModelNames) {
        if (!sort::algo_supports_model(a.value, m.value)) continue;
        cells.push_back(Cell{i, a.value, m.value});
      }
    }
  }
  return cells;
}

sort::SortSpec cell_spec(const GridInput& in, const Cell& c) {
  sort::SortSpec spec;
  spec.algo = c.algo;
  spec.model = c.model;
  spec.nprocs = in.nprocs;
  spec.n = in.n;
  spec.radix_bits = 8;
  spec.dist = in.dist;
  spec.seed = in.seed;
  spec.record = keys::RecordType::kU32;
  return spec;
}

/// One pass over every cell. With a SortLayer the pass is traced: every
/// checkpoint is stamped and the spans land in `layer`.
std::vector<CellResult> grid_pass(const std::vector<GridInput>& inputs,
                                  const std::vector<Cell>& cells,
                                  Report& report, SortLayer* layer) {
  std::vector<CellResult> out(cells.size());
  std::vector<Stamp> stamps;
  double baseline_s = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridInput& in = inputs[cells[i].input];
    if (i == 0 || cells[i].input != cells[i - 1].input) {
      baseline_s = baseline_sort_s(in.keys, report);
    }
    out[i].baseline_s = baseline_s;
    double t_call = 0;
    double t_return = 0;
    out[i].ok = run_checked_sort(cell_spec(in, cells[i]), in.checksum,
                                 layer != nullptr, report, out[i].run, stamps,
                                 t_call, t_return);
    if (out[i].ok && layer != nullptr) {
      layer->add(out[i].run, stamps, t_call, t_return);
    }
  }
  return out;
}

/// The service job a grid input corresponds to (for the planner).
svc::JobSpec grid_job(const GridInput& in) {
  svc::JobSpec job;
  job.n = in.n;
  job.nprocs = in.nprocs;
  job.dist = in.dist;
  job.seed = in.seed;
  return job;
}

void count_pass(const std::vector<CellResult>& pass, Report& report) {
  for (const CellResult& r : pass) {
    report.attempted += 1;
    if (!r.ok) report.failed += 1;
  }
}

/// Host seconds the pass spent in sort calls.
double pass_wall_s(const std::vector<CellResult>& pass) {
  double wall = 0;
  for (const CellResult& r : pass) wall += r.run.wall_s;
  return wall;
}

/// The deterministic figures of one pass: mean virtual time, the
/// uncalibrated planner's audit hit rate (its choice against its runner-up,
/// both measured in the grid), and the raw predictor's relative error per
/// cell.
struct Quality {
  double virtual_ms_mean = 0;
  double plan_hit_rate = 0;
  std::size_t audits = 0;
  double pred_rel_err = 0;
  std::map<std::string, std::pair<double, std::size_t>> err_by_algo;
};

Quality grid_quality(const std::vector<GridInput>& inputs,
                     const std::vector<Cell>& cells,
                     const std::vector<CellResult>& pass) {
  Quality q;
  std::map<std::string, double> virt;  // "<input>/<algo>/<model>" -> ns
  auto key = [](std::size_t input, sort::Algo a, sort::Model m) {
    return std::to_string(input) + "/" + sort::algo_name(a) + "/" +
           sort::model_name(m);
  };
  const svc::Planner planner;
  std::vector<double> vms;
  std::vector<double> errs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!pass[i].ok) continue;
    const double v = pass[i].run.virtual_ns;
    vms.push_back(v / 1e6);
    virt[key(cells[i].input, cells[i].algo, cells[i].model)] = v;
    svc::JobSpec job = grid_job(inputs[cells[i].input]);
    job.force_algo = cells[i].algo;
    job.force_model = cells[i].model;
    job.force_radix_bits = 8;
    const Result<svc::Plan> plan = planner.try_plan(job);
    if (!plan.ok()) continue;
    const double err = std::abs(plan->predicted_raw_ns - v) / v;
    errs.push_back(err);
    auto& e = q.err_by_algo[sort::algo_name(cells[i].algo)];
    e.first += err;
    ++e.second;
  }
  q.virtual_ms_mean = mean(vms);
  q.pred_rel_err = mean(errs);
  // One audit per input for the free planner and for the planner with
  // each model, then each algorithm, pinned (a job may pin any dimension):
  // the chosen cell wins when its measured time is no worse than the
  // runner-up's.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    svc::JobSpec base = grid_job(inputs[i]);
    base.force_radix_bits = 8;
    std::vector<svc::JobSpec> jobs = {base};
    for (const auto& m : sort::kModelNames) {
      jobs.push_back(base);
      jobs.back().force_model = m.value;
    }
    for (const auto& a : sort::kAlgoNames) {
      jobs.push_back(base);
      jobs.back().force_algo = a.value;
    }
    for (const svc::JobSpec& job : jobs) {
      const Result<svc::Plan> plan = planner.try_plan(job);
      if (!plan.ok() || !plan->has_runner_up) continue;
      const auto a = virt.find(key(i, plan->algo, plan->model));
      const auto b = virt.find(key(i, plan->runner_algo, plan->runner_model));
      if (a == virt.end() || b == virt.end()) continue;
      ++q.audits;
      if (a->second <= b->second) ++hits;
    }
  }
  q.plan_hit_rate = q.audits == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(q.audits);
  return q;
}

/// Median per-cell setup: one tiny try_run_sort, the fixed cost a direct
/// caller pays before any key is sorted.
double grid_setup_s(Report& report) {
  std::vector<double> reps;
  sort::SortSpec spec;
  spec.n = 4096;
  spec.nprocs = 4;
  spec.record = keys::RecordType::kU32;
  for (int i = 0; i < 7; ++i) {
    const double t0 = now_s();
    const Result<sort::SortResult> r = sort::try_run_sort(spec);
    reps.push_back(now_s() - t0);
    if (!r.ok() || !r->verified) report.fail("setup probe sort failed");
  }
  return median(reps);
}

/// Median over cells with a sample-sort counterpart on the same input and
/// model of (algo / sample), by host time or by virtual time.
double vs_sample(const std::vector<Cell>& cells,
                 const std::vector<CellResult>& pass, sort::Algo algo,
                 bool host) {
  std::map<std::string, double> sample;
  auto key = [](const Cell& c) {
    return std::to_string(c.input) + "/" + sort::model_name(c.model);
  };
  auto value = [host](const CellResult& r) {
    return host ? r.run.wall_s : r.run.virtual_ns;
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (pass[i].ok && cells[i].algo == sort::Algo::kSample) {
      sample[key(cells[i])] = value(pass[i]);
    }
  }
  std::vector<double> ratios;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!pass[i].ok || cells[i].algo != algo) continue;
    const auto it = sample.find(key(cells[i]));
    if (it != sample.end()) ratios.push_back(value(pass[i]) / it->second);
  }
  return median(ratios);
}

void check_same_virtual(const std::vector<CellResult>& a,
                        const std::vector<CellResult>& b, Report& report) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].ok || !b[i].ok) continue;
    const sim::Breakdown& x = a[i].run.virtual_sum;
    const sim::Breakdown& y = b[i].run.virtual_sum;
    if (a[i].run.virtual_ns != b[i].run.virtual_ns || x.busy_ns != y.busy_ns ||
        x.lmem_ns != y.lmem_ns || x.rmem_ns != y.rmem_ns ||
        x.sync_ns != y.sync_ns) {
      report.fail("traced cell " + std::to_string(i) +
                  " virtual time differs from the untraced run");
    }
  }
}

}  // namespace

void run_algo_grid(const Options& opt, Report& report) {
  const double setup_s = grid_setup_s(report);
  const std::vector<GridInput> inputs = make_inputs(opt);
  const std::vector<Cell> cells = make_cells(inputs);

  // Measured phase: whole passes, so every run measures the same cells.
  // One pass takes about 12 s on a 4-core host; --seconds sets how many.
  // A traced run measures an untraced, a traced and another untraced pass.
  const int pass_count =
      opt.trace ? 1
                : std::max(1, static_cast<int>(std::lround(opt.seconds / 12)));
  std::vector<std::vector<CellResult>> passes;
  for (int i = 0; i < pass_count; ++i) {
    passes.push_back(grid_pass(inputs, cells, report, nullptr));
  }

  std::vector<double> lat_ms;
  std::vector<double> tax;
  double wall = 0;
  std::size_t ok = 0;
  for (const auto& pass : passes) {
    wall += pass_wall_s(pass);
    count_pass(pass, report);
    for (std::size_t i = 0; i < pass.size(); ++i) {
      if (!pass[i].ok) continue;
      ++ok;
      lat_ms.push_back(pass[i].run.wall_s * 1e3);
      tax.push_back((pass[i].run.wall_s - pass[i].run.keygen_s) /
                    pass[i].baseline_s);
    }
  }
  const Quality q = grid_quality(inputs, cells, passes.front());
  const TailStats lat = tail_stats(lat_ms);
  const double jobs_per_s = static_cast<double>(ok) / wall;
  std::cout << "# algo-grid: " << cells.size() << " cells x " << passes.size()
            << " pass(es), " << ok << " ok in " << wall << " s\n";
  report.info_num("cells", static_cast<double>(cells.size()));
  report.info_num("passes", static_cast<double>(passes.size()));
  report.info_num("latency_tail_pct", lat.tail_pct);
  report.info_num("latency_samples", static_cast<double>(lat.samples));
  report.info_num("plan_audits", static_cast<double>(q.audits));
  report.info_num("virtual_ms_mean", q.virtual_ms_mean);
  report.info_num("plan_hit_rate", q.plan_hit_rate);
  report.info_num("pred_rel_err", q.pred_rel_err);

  if (!opt.trace) {
    report.put("jobs_per_s", jobs_per_s, "jobs/s");
    report.put("latency_ms_p50", lat.p50, "ms");
    report.put("latency_ms_tail", lat.tail, "ms");
    report.put("host_tax_x", median(tax), "x");
    report.put("success_frac",
               static_cast<double>(ok) /
                   static_cast<double>(std::max<std::uint64_t>(
                       report.attempted, 1)),
               "fraction");
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report.put("virtual_ms_mean", q.virtual_ms_mean, "ms");
    report.put("plan_hit_rate", q.plan_hit_rate, "fraction");
    report.put("pred_rel_err", q.pred_rel_err, "fraction");
    return;
  }

  // Traced run: one more pass with every checkpoint stamped.
  SortLayer layer;
  const sort::InputCacheStats c0 = sort::input_cache_stats();
  const std::vector<CellResult> traced =
      grid_pass(inputs, cells, report, &layer);
  const sort::InputCacheStats c1 = sort::input_cache_stats();
  count_pass(traced, report);
  check_same_virtual(passes.front(), traced, report);
  // The untraced pass once more, with the input cache as warm as it was for
  // the traced pass: the reference for the tracing overhead.
  const std::vector<CellResult> again =
      grid_pass(inputs, cells, report, nullptr);
  count_pass(again, report);
  const double traced_wall = pass_wall_s(traced);

  LayerSet layers;
  double gen_s = 0;
  double fp_s = 0;
  double keys_total = 0;
  for (const GridInput& in : inputs) {
    gen_s += in.gen_s;
    fp_s += in.gen_s + in.checksum_s;
    keys_total += static_cast<double>(in.n);
  }
  double base_s = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 0 || cells[i].input != cells[i - 1].input) {
      base_s += traced[i].baseline_s;
    }
  }
  layers.set("keys.gen_ns_per_key", gen_s * 1e9 / keys_total);
  layers.set("keys.fingerprint_ms_per_job",
             fp_s * 1e3 / static_cast<double>(inputs.size()));
  layer.emit(layers);
  layers.set("sort.baseline_ns_per_key", base_s * 1e9 / keys_total);
  for (const auto& e : sort::kAlgoNames) {
    if (e.value == sort::Algo::kSample) continue;
    layers.set(std::string("sort.") + e.name + ".host_vs_sample_x",
               vs_sample(cells, traced, e.value, true));
    layers.set(std::string("sort.") + e.name + ".virtual_vs_sample_x",
               vs_sample(cells, traced, e.value, false));
  }
  const double lookups = static_cast<double>((c1.hits - c0.hits) +
                                             (c1.misses - c0.misses));
  layers.set("sort.input_cache.hit_ratio",
             lookups > 0 ? static_cast<double>(c1.hits - c0.hits) / lookups
                         : 0.0);

  // perf: the planner's per-job cost, and the raw predictor per algorithm.
  const svc::Planner planner;
  std::vector<double> plan_us;
  for (const GridInput& in : inputs) {
    const svc::JobSpec job = grid_job(in);
    for (int rep = 0; rep < 20; ++rep) {
      const double t = now_s();
      const Result<svc::Plan> plan = planner.try_plan(job);
      plan_us.push_back((now_s() - t) * 1e6);
      if (!plan.ok()) report.fail("planner refused a grid job");
    }
  }
  layers.set("perf.plan_us", mean(plan_us));
  for (const auto& [algo, e] : q.err_by_algo) {
    layers.set("perf.pred_rel_err." + algo,
               e.first / static_cast<double>(e.second));
  }
  layers.set("trace.overhead_frac", traced_wall / pass_wall_s(again) - 1.0);
  layers.set("trace.unattributed_frac",
             1.0 - layer.spans().total_all_s() / traced_wall);
  layers.emit(report);
}

}  // namespace pb
