// Shared infrastructure for the table/figure reproduction harnesses.
//
// Every harness reproduces one table or figure from the paper. The paper's
// experiments ran 1M-256M keys on a real 64-processor Origin 2000; this
// host has one core, so the default sweeps use the paper's sizes scaled
// down 16x (64K-16M) — the simulated machine is unchanged, and all the
// shape-defining regimes (per-processor working set vs 4 MB L2 / TLB
// reach, message-overhead amortisation) are crossed within the default
// range at 16-64 processors. Pass --full for the paper's exact sizes
// (hours of host time at 256M).
//
// Common options: --sizes 1M,4M --procs 16,32,64 --radix 8 --seed 1
//                 --full --csv <dir> --jobs N (0 = all hardware threads;
//                 default from DSMSORT_JOBS, else 1)
//                 --kernels reference|optimized (host radix kernels;
//                 charge-invariant, default optimized or DSMSORT_KERNELS)
#pragma once

#include <iostream>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "perf/breakdown.hpp"
#include "perf/report.hpp"
#include "sim/sweep.hpp"
#include "sort/seq_radix.hpp"
#include "sort/sort_api.hpp"

namespace dsm::bench {

struct BenchEnv {
  std::vector<std::uint64_t> sizes;
  std::vector<int> procs;
  int radix_bits = 8;
  std::uint64_t seed = 1;
  int jobs = 1;         // host threads for independent sweep cells
  std::string csv_dir;  // empty = no CSV output

  bool want_csv() const { return !csv_dir.empty(); }
};

/// Parse the common options. `extra_known` lists harness-specific options.
inline BenchEnv parse_env(int argc, char** argv,
                          const std::string& default_sizes = "1M,4M,16M",
                          const std::string& default_procs = "16,32,64",
                          std::vector<std::string> extra_known = {}) {
  ArgParser args(argc, argv);
  std::vector<std::string> known{"sizes", "procs", "radix", "seed",
                                 "full",  "csv",   "jobs",  "kernels"};
  known.insert(known.end(), extra_known.begin(), extra_known.end());
  args.check_known(known);

  BenchEnv env;
  env.sizes = args.get_counts(
      "sizes", args.has("full") ? "1M,4M,16M,64M,256M" : default_sizes);
  env.procs = args.get_ints("procs", default_procs);
  env.radix_bits = static_cast<int>(args.get_int("radix", 8));
  env.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  env.jobs = sim::resolve_jobs(static_cast<int>(
      args.get_int("jobs", sim::default_jobs())));
  env.csv_dir = args.get("csv", "");
  const std::string kernels = args.get("kernels", "");
  if (!kernels.empty()) {
    sort::set_default_kernel_backend(sort::kernel_backend_from_name(kernels));
  }
  return env;
}

/// Print the standard harness banner.
inline void banner(const std::string& what, const BenchEnv& env) {
  std::cout << "== " << what << " ==\n"
            << "   simulated machine: 64-way SGI Origin 2000 (virtual time)\n"
            << "   sizes:";
  for (const auto s : env.sizes) std::cout << ' ' << fmt_count(s);
  std::cout << "  procs:";
  for (const int p : env.procs) std::cout << ' ' << p;
  std::cout << "  kernels: "
            << sort::kernel_backend_name(sort::default_kernel_backend())
            << " (isa " << sort::kernel_isa_name() << ")"
            << "  jobs: " << env.jobs;
  std::cout << "\n\n";
}

/// Sequential radix baseline cache (Table 1 numbers), keyed by
/// (n, dist, radix); uses the paper's page-size policy for n. Shared
/// across a whole sweep run: lookups are mutex-guarded so parallel sweep
/// workers can consult one instance (values are deterministic, so a rare
/// duplicated compute is harmless — first insert wins).
class BaselineCache {
 public:
  explicit BaselineCache(std::uint64_t seed) : seed_(seed) {}

  double ns(Index n, keys::Dist dist, int radix_bits) {
    const std::uint64_t key = pack(n, dist, radix_bits);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    const double v = sort::seq_baseline_ns(
        n, dist, radix_bits, machine::MachineParams::origin2000_for_keys(n),
        seed_);
    const std::lock_guard<std::mutex> lock(mu_);
    return cache_.emplace(key, v).first->second;
  }

  /// Precompute baselines serially (call before a parallel sweep so
  /// workers only ever hit).
  void warm(Index n, keys::Dist dist, int radix_bits) {
    ns(n, dist, radix_bits);
  }

 private:
  static std::uint64_t pack(Index n, keys::Dist dist, int radix_bits) {
    // n < 2^55 keys, dist < 16, radix_bits <= 20 < 32.
    return (static_cast<std::uint64_t>(n) << 9) |
           (static_cast<std::uint64_t>(dist) << 5) |
           static_cast<std::uint64_t>(radix_bits);
  }

  std::uint64_t seed_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, double> cache_;
};

/// Run one sort with the standard env seed and the paper's page policy.
inline sort::SortResult run_spec(sort::SortSpec spec, std::uint64_t seed) {
  spec.seed = seed;
  return sort::run_sort(spec);
}

/// Write CSV if requested.
inline void maybe_csv(const BenchEnv& env, const std::string& name,
                      const TextTable& table) {
  if (!env.want_csv()) return;
  const std::string path = env.csv_dir + "/" + name + ".csv";
  perf::write_file(path, table.render_csv());
  std::cout << "(csv written to " << path << ")\n";
}

/// The joint sweep behind Tables 2 and 3: for each (n, p, algorithm),
/// minimise execution time over programming models and radix sizes.
struct BestCell {
  double ns = 0;
  sort::Model model = sort::Model::kShmem;
  int radix_bits = 0;
};

inline BestCell best_over_models_and_radixes(
    sort::Algo algo, Index n, int procs, const std::vector<int>& radixes,
    std::uint64_t seed) {
  static constexpr sort::Model kRadixModels[] = {
      sort::Model::kCcSas, sort::Model::kCcSasNew, sort::Model::kMpi,
      sort::Model::kShmem};
  static constexpr sort::Model kSampleModels[] = {
      sort::Model::kCcSas, sort::Model::kMpi, sort::Model::kShmem};

  BestCell best;
  best.ns = 1e300;
  const auto models = algo == sort::Algo::kRadix
                          ? std::span<const sort::Model>(kRadixModels)
                          : std::span<const sort::Model>(kSampleModels);
  for (const sort::Model m : models) {
    for (const int r : radixes) {
      sort::SortSpec spec;
      spec.algo = algo;
      spec.model = m;
      spec.nprocs = procs;
      spec.n = n;
      spec.radix_bits = r;
      const double ns = run_spec(spec, seed).elapsed_ns;
      if (ns < best.ns) best = BestCell{ns, m, r};
    }
  }
  return best;
}

/// The Tables 2/3 sweep on the sweep pool: one cell per
/// (n, algo ∈ {radix, sample}, p), in that nesting order — the row-major
/// order both tables consume. One cell keeps all its model x radix runs
/// on one worker (shared thread-local input cache).
inline std::vector<BestCell> sweep_best_cells(const BenchEnv& env,
                                              const std::vector<int>& radixes) {
  struct Cell {
    std::uint64_t n = 0;
    sort::Algo algo = sort::Algo::kRadix;
    int p = 0;
  };
  std::vector<Cell> cells;
  for (const auto n : env.sizes) {
    for (const sort::Algo a : {sort::Algo::kRadix, sort::Algo::kSample}) {
      for (const int p : env.procs) cells.push_back(Cell{n, a, p});
    }
  }
  return sim::sweep(cells.size(), env.jobs, [&](std::size_t i) {
    return best_over_models_and_radixes(cells[i].algo, cells[i].n, cells[i].p,
                                        radixes, env.seed);
  });
}

}  // namespace dsm::bench
