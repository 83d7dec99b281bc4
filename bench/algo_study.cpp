// Algorithm-menu crossover study (DESIGN.md §13): where do the MSD
// in-place radix and multiway mergesort backends actually beat the LSD
// radix incumbent, and does the calibrated planner agree?
//
// Three sections, written to BENCH_algos.json:
//   "local"   algo x dist x size host wall-clock matrix of the sequential
//             backend kernels (LSD vs MSD vs mergesort), one host thread
//             per backend — the budget one simulated processor gets.
//   "full"    run_sort host wall-clock plus charged virtual time for
//             algo x model x dist x size at p=16; the level the planner
//             prices.
//   "flips"   every cell where a new backend beats the LSD incumbent by
//             >= 1.15x host wall-clock, tagged with the calibrated
//             planner's pick for that (dist, n) workload.
//
// Self-checks (abort on failure):
//   - the three local backends produce identical sorted output;
//   - the calibrated planner — EWMA fed with each feasible cell's
//     measured virtual time — picks kMsdRadix on the dup cell and
//     kMergesort on the almost-sorted cell. Virtual time is
//     deterministic, so this check is noise-free and runs in the quick
//     ctest tier (RUN_SERIAL).
//   - full mode only: at least two distinct planner-agreeing flips.
//     Quick mode records host ratios but does not assert them: sub-10ms
//     cells on a shared one-core host are scheduler noise.
//
// Options beyond bench_common: --quick, --out PATH (default
// BENCH_algos.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "keys/distributions.hpp"
#include "sort/kernels.hpp"
#include "sort/merge_sort.hpp"
#include "sort/msd_radix.hpp"
#include "sort/seq_radix.hpp"
#include "sort/sort_api.hpp"
#include "svc/job.hpp"
#include "svc/planner.hpp"

namespace {

using namespace dsm;

/// A new backend must beat the incumbent by this factor to count as a
/// crossover flip (the acceptance bar; comfortably above best-of-R
/// residual noise on a quiet host).
constexpr double kFlipRatio = 1.15;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<Key> make_input(std::uint64_t n, keys::Dist dist,
                            std::uint64_t seed) {
  std::vector<Key> input(n);
  keys::GenSpec gen;
  gen.n_total = static_cast<Index>(n);
  gen.nprocs = 1;
  gen.radix_bits = 11;
  gen.seed = seed;
  keys::generate(dist, input, gen);
  return input;
}

/// Best-of-R timing of one local backend over a fixed input. The first
/// rep warms the workspace allocations; best-of absorbs it.
template <typename Fn>
double best_of(int reps, const std::vector<Key>& input, std::vector<Key>& work,
               Fn&& fn) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::copy(input.begin(), input.end(), work.begin());
    const double t0 = now_s();
    fn();
    const double s = now_s() - t0;
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

struct LocalCell {
  std::uint64_t n = 0;
  keys::Dist dist = keys::Dist::kGauss;
  double lsd_s = 0, msd_s = 0, merge_s = 0;
  const char* winner() const {
    if (msd_s <= lsd_s && msd_s <= merge_s) return "msd";
    if (merge_s <= lsd_s) return "merge";
    return "lsd";
  }
};

struct FullCell {
  sort::Model model = sort::Model::kShmem;
  keys::Dist dist = keys::Dist::kGauss;
  std::uint64_t n = 0;
  // Indexed like kStudyAlgos below.
  double host_s[4] = {0, 0, 0, 0};
  double virt_ns[4] = {0, 0, 0, 0};
};

constexpr sort::Algo kStudyAlgos[] = {sort::Algo::kRadix, sort::Algo::kSample,
                                      sort::Algo::kMsdRadix,
                                      sort::Algo::kMergesort};

struct Flip {
  std::string level;  // "local" or "full"
  std::string model;  // full-level flips name their machine model
  sort::Algo winner = sort::Algo::kMsdRadix;
  keys::Dist dist = keys::Dist::kGauss;
  std::uint64_t n = 0;
  double baseline_s = 0, winner_s = 0;
  sort::Algo planner_pick = sort::Algo::kRadix;
  double ratio() const { return baseline_s / winner_s; }
  bool planner_agrees() const { return planner_pick == winner; }
};

/// Calibrate a fresh planner on the (dist, n) workload — one forced run
/// per feasible (algo, model) cell, observing the measured virtual time —
/// then return its unforced pick. Deterministic: run_sort virtual times
/// are pure functions of the spec.
struct PlannerPick {
  sort::Algo algo = sort::Algo::kRadix;
  sort::Model model = sort::Model::kShmem;
  double predicted_ns = 0;
  std::size_t calibrated_cells = 0;
};

PlannerPick calibrated_pick(keys::Dist dist, std::uint64_t n, int procs,
                            std::uint64_t seed) {
  svc::Planner planner;
  svc::JobSpec job;
  job.n = static_cast<Index>(n);
  job.nprocs = procs;
  job.dist = dist;
  job.seed = seed;

  PlannerPick pick;
  for (const auto& ae : sort::kAlgoNames) {
    for (const auto& me : sort::kModelNames) {
      svc::JobSpec forced = job;
      forced.force_algo = ae.value;
      forced.force_model = me.value;
      const Result<svc::Plan> plan = planner.try_plan(forced);
      if (!plan.ok()) continue;  // infeasible cell (e.g. CC-SAS-NEW)
      const sort::SortSpec spec = svc::sort_spec_for(
          job, plan->algo, plan->model, plan->radix_bits);
      planner.observe(*plan, sort::run_sort(spec).elapsed_ns);
      ++pick.calibrated_cells;
    }
  }
  const svc::Plan chosen = planner.plan(job);
  pick.algo = chosen.algo;
  pick.model = chosen.model;
  pick.predicted_ns = chosen.predicted_ns;
  return pick;
}

std::string json_str(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  try {
    const bool quick = [&] {
      ArgParser probe(argc, argv);
      return probe.has("quick");
    }();
    auto env = bench::parse_env(argc, argv, quick ? "64K" : "256K,1M,4M",
                                "16", {"quick", "out"});
    ArgParser args(argc, argv);
    const std::string out_path = args.get("out", "BENCH_algos.json");
    bench::banner("Algorithm menu: backend crossover study", env);

    const int procs = env.procs.empty() ? 16 : env.procs.front();
    const int reps = quick ? 3 : 5;
    const std::vector<keys::Dist> local_dists =
        quick ? std::vector<keys::Dist>{keys::Dist::kGauss, keys::Dist::kDup,
                                        keys::Dist::kAlmostSorted}
              : std::vector<keys::Dist>{keys::Dist::kGauss, keys::Dist::kDup,
                                        keys::Dist::kZipf,
                                        keys::Dist::kAlmostSorted,
                                        keys::Dist::kAdversarial};

    // ---- Section 1: local backend kernels, algo x dist x size. ----
    std::vector<LocalCell> local_cells;
    std::cout << "-- local backend kernels (best of " << reps << ") --\n";
    for (const std::uint64_t n : env.sizes) {
      for (const keys::Dist dist : local_dists) {
        const std::vector<Key> input = make_input(n, dist, env.seed);
        std::vector<Key> work(n), tmp(n), lsd_out;
        sort::RadixWorkspace ws;
        LocalCell cell;
        cell.n = n;
        cell.dist = dist;
        cell.lsd_s = best_of(reps, input, work, [&] {
          sort::seq_radix_sort(work, tmp, 11, sort::KernelBackend::kOptimized,
                               ws);
        });
        lsd_out = work;
        cell.msd_s = best_of(reps, input, work, [&] {
          sort::seq_msd_sort(work, sort::KernelBackend::kOptimized, ws);
        });
        DSM_CHECK(work == lsd_out, "msd backend disagrees with lsd output");
        cell.merge_s = best_of(reps, input, work, [&] {
          sort::seq_merge_sort(work, tmp, 11, sort::KernelBackend::kOptimized,
                               ws);
        });
        DSM_CHECK(work == lsd_out, "merge backend disagrees with lsd output");
        std::printf("  n=%-8s %-13s lsd=%.6fs msd=%.6fs merge=%.6fs -> %s\n",
                    fmt_count(n).c_str(), keys::dist_name(dist), cell.lsd_s,
                    cell.msd_s, cell.merge_s, cell.winner());
        local_cells.push_back(cell);
      }
    }

    // ---- Section 2: full sorts, algo x model x dist x size at p. ----
    const std::vector<sort::Model> full_models =
        quick ? std::vector<sort::Model>{sort::Model::kShmem}
              : std::vector<sort::Model>{sort::Model::kShmem,
                                         sort::Model::kMpi,
                                         sort::Model::kCcSas};
    const std::vector<std::uint64_t> full_sizes =
        quick ? std::vector<std::uint64_t>{std::uint64_t{1} << 18}
              : std::vector<std::uint64_t>{std::uint64_t{1} << 18,
                                           std::uint64_t{1} << 20,
                                           std::uint64_t{1} << 22};
    const int full_reps = quick ? 1 : 3;
    std::vector<FullCell> full_cells;
    std::cout << "-- full sorts at p=" << procs << " (best of " << full_reps
              << ") --\n";
    for (const sort::Model model : full_models) {
      for (const keys::Dist dist :
           {keys::Dist::kDup, keys::Dist::kAlmostSorted}) {
        for (const std::uint64_t n : full_sizes) {
          FullCell cell;
          cell.model = model;
          cell.dist = dist;
          cell.n = n;
          for (std::size_t a = 0; a < 4; ++a) {
            sort::SortSpec spec;
            spec.algo = kStudyAlgos[a];
            spec.model = model;
            spec.nprocs = procs;
            spec.n = static_cast<Index>(n);
            spec.radix_bits = 11;
            spec.dist = dist;
            spec.seed = env.seed;
            for (int rep = 0; rep < full_reps; ++rep) {
              const double t0 = now_s();
              const auto r = sort::run_sort(spec);
              const double s = now_s() - t0;
              if (rep == 0 || s < cell.host_s[a]) cell.host_s[a] = s;
              cell.virt_ns[a] = r.elapsed_ns;
            }
          }
          std::printf(
              "  %-7s %-13s n=%-6s radix=%.4fs sample=%.4fs msd=%.4fs "
              "merge=%.4fs\n",
              sort::model_name(model), keys::dist_name(dist),
              fmt_count(n).c_str(), cell.host_s[0], cell.host_s[1],
              cell.host_s[2], cell.host_s[3]);
          full_cells.push_back(cell);
        }
      }
    }

    // ---- Section 3: calibrated-planner picks + crossover flips. ----
    // The two headline cells are always asserted (virtual time is
    // deterministic, so these hold on any host); flip cells add their own
    // (dist, n) pick on demand.
    std::map<std::pair<int, std::uint64_t>, PlannerPick> picks;
    const auto pick_for = [&](keys::Dist dist, std::uint64_t n) {
      const auto key = std::make_pair(static_cast<int>(dist), n);
      const auto it = picks.find(key);
      if (it != picks.end()) return it->second;
      const PlannerPick p = calibrated_pick(dist, n, procs, env.seed);
      return picks.emplace(key, p).first->second;
    };

    const std::uint64_t headline_n =
        quick ? std::uint64_t{1} << 18 : std::uint64_t{1} << 20;
    const PlannerPick dup_pick = pick_for(keys::Dist::kDup, headline_n);
    const PlannerPick almost_pick =
        pick_for(keys::Dist::kAlmostSorted, headline_n);
    std::cout << "-- calibrated planner (" << dup_pick.calibrated_cells
              << " feasible cells observed) --\n"
              << "  dup/" << fmt_count(headline_n) << " -> "
              << sort::algo_name(dup_pick.algo) << "\n"
              << "  almost-sorted/" << fmt_count(headline_n) << " -> "
              << sort::algo_name(almost_pick.algo) << "\n";
    DSM_CHECK(dup_pick.algo == sort::Algo::kMsdRadix,
              "calibrated planner must pick MSD radix on the dup cell");
    DSM_CHECK(almost_pick.algo == sort::Algo::kMergesort,
              "calibrated planner must pick mergesort on the almost-sorted "
              "cell");

    std::vector<Flip> flips;
    for (const LocalCell& c : local_cells) {
      const struct {
        sort::Algo algo;
        double s;
      } contenders[] = {{sort::Algo::kMsdRadix, c.msd_s},
                        {sort::Algo::kMergesort, c.merge_s}};
      for (const auto& ct : contenders) {
        if (c.lsd_s / ct.s < kFlipRatio) continue;
        Flip f;
        f.level = "local";
        f.winner = ct.algo;
        f.dist = c.dist;
        f.n = c.n;
        f.baseline_s = c.lsd_s;
        f.winner_s = ct.s;
        f.planner_pick = pick_for(c.dist, c.n).algo;
        flips.push_back(f);
      }
    }
    for (const FullCell& c : full_cells) {
      for (const std::size_t a : {std::size_t{2}, std::size_t{3}}) {
        if (c.host_s[0] / c.host_s[a] < kFlipRatio) continue;
        Flip f;
        f.level = "full";
        f.model = sort::model_name(c.model);
        f.winner = kStudyAlgos[a];
        f.dist = c.dist;
        f.n = c.n;
        f.baseline_s = c.host_s[0];
        f.winner_s = c.host_s[a];
        f.planner_pick = pick_for(c.dist, c.n).algo;
        flips.push_back(f);
      }
    }

    std::size_t agreeing = 0;
    std::cout << "-- crossover flips (new backend >= " << kFlipRatio
              << "x over LSD radix) --\n";
    for (const Flip& f : flips) {
      agreeing += f.planner_agrees() ? std::size_t{1} : std::size_t{0};
      std::printf("  [%s%s%s] %s on %s/%s: %.2fx (planner picks %s%s)\n",
                  f.level.c_str(), f.model.empty() ? "" : " ",
                  f.model.c_str(), sort::algo_name(f.winner),
                  keys::dist_name(f.dist), fmt_count(f.n).c_str(), f.ratio(),
                  sort::algo_name(f.planner_pick),
                  f.planner_agrees() ? ", agrees" : "");
    }
    if (flips.empty()) std::cout << "  (none)\n";
    if (!quick) {
      DSM_CHECK(agreeing >= 2,
                "full study expects >= 2 planner-agreeing crossover flips; "
                "rerun on a quiet host if the machine was loaded");
    }

    // ---- JSON artifact. ----
    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"algo_study\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"config\": {\"seed\": " << env.seed << ", \"procs\": " << procs
       << ", \"reps\": " << reps << ", \"full_reps\": " << full_reps
       << ", \"flip_ratio\": " << fmt_fixed(kFlipRatio, 2)
       << ", \"host\": {\"hardware_threads\": "
       << std::thread::hardware_concurrency() << ", \"kernel_isa\": \""
       << sort::kernel_isa_name() << "\"}},\n";
    js << "  \"local\": {\"description\": \"sequential backend kernels, "
          "host seconds, best-of-"
       << reps << "\", \"cells\": [\n";
    for (std::size_t i = 0; i < local_cells.size(); ++i) {
      const LocalCell& c = local_cells[i];
      js << "    {\"n\": " << c.n
         << ", \"dist\": " << json_str(keys::dist_name(c.dist))
         << ", \"lsd_s\": " << fmt_fixed(c.lsd_s, 6)
         << ", \"msd_s\": " << fmt_fixed(c.msd_s, 6)
         << ", \"merge_s\": " << fmt_fixed(c.merge_s, 6)
         << ", \"winner\": " << json_str(c.winner()) << "}"
         << (i + 1 < local_cells.size() ? "," : "") << "\n";
    }
    js << "  ]},\n";
    js << "  \"full\": {\"description\": \"run_sort host seconds (best-of-"
       << full_reps
       << ") and charged virtual ns (deterministic), p=" << procs
       << "\", \"cells\": [\n";
    for (std::size_t i = 0; i < full_cells.size(); ++i) {
      const FullCell& c = full_cells[i];
      js << "    {\"model\": " << json_str(sort::model_name(c.model))
         << ", \"dist\": " << json_str(keys::dist_name(c.dist))
         << ", \"n\": " << c.n;
      for (std::size_t a = 0; a < 4; ++a) {
        js << ", \"" << sort::algo_name(kStudyAlgos[a])
           << "_s\": " << fmt_fixed(c.host_s[a], 4) << ", \""
           << sort::algo_name(kStudyAlgos[a])
           << "_virt_ns\": " << fmt_fixed(c.virt_ns[a], 0);
      }
      js << "}" << (i + 1 < full_cells.size() ? "," : "") << "\n";
    }
    js << "  ]},\n";
    js << "  \"planner\": {\"description\": \"fresh planner calibrated with "
          "each feasible cell's measured virtual time, then asked for an "
          "unforced plan\", \"cells\": [\n";
    {
      std::size_t i = 0;
      for (const auto& [key, p] : picks) {
        js << "    {\"dist\": "
           << json_str(keys::dist_name(static_cast<keys::Dist>(key.first)))
           << ", \"n\": " << key.second
           << ", \"picked\": " << json_str(sort::algo_name(p.algo))
           << ", \"model\": " << json_str(sort::model_name(p.model))
           << ", \"predicted_ns\": " << fmt_fixed(p.predicted_ns, 0)
           << ", \"calibrated_cells\": " << p.calibrated_cells << "}"
           << (++i < picks.size() ? "," : "") << "\n";
      }
    }
    js << "  ]},\n";
    js << "  \"flips\": [\n";
    for (std::size_t i = 0; i < flips.size(); ++i) {
      const Flip& f = flips[i];
      js << "    {\"level\": " << json_str(f.level);
      if (!f.model.empty()) js << ", \"model\": " << json_str(f.model);
      js << ", \"winner\": " << json_str(sort::algo_name(f.winner))
         << ", \"dist\": " << json_str(keys::dist_name(f.dist))
         << ", \"n\": " << f.n
         << ", \"baseline_s\": " << fmt_fixed(f.baseline_s, 6)
         << ", \"winner_s\": " << fmt_fixed(f.winner_s, 6)
         << ", \"ratio\": " << fmt_fixed(f.ratio(), 2)
         << ", \"planner_pick\": "
         << json_str(sort::algo_name(f.planner_pick))
         << ", \"planner_agrees\": "
         << (f.planner_agrees() ? "true" : "false") << "}"
         << (i + 1 < flips.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";
    write_file_atomic(out_path, js.str());
    std::cout << "(json written to " << out_path << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "algo_study: " << e.what() << "\n";
    return 1;
  }
}
