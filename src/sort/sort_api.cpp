#include "sort/sort_api.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <memory>

#include "common/error.hpp"
#include "sim/team.hpp"
#include "sort/input_cache.hpp"
#include "sort/kernels.hpp"
#include "sort/model_runtime.hpp"
#include "sort/seq_radix.hpp"
#include "sort/verify.hpp"

namespace dsm::sort {
namespace {

/// Poll cancellation and fire the observation hook at a named site.
/// Throwing here (cancellation, an injected fault) aborts the sort; when
/// the site is a phase mark inside team.run, the team poison machinery
/// unwinds every rank cleanly.
void checkpoint(const SortSpec& spec, const char* site, double virtual_ns) {
  if (spec.hooks.cancel != nullptr && spec.hooks.cancel->cancelled()) {
    throw StatusError(Status::cancelled(
        std::string("sort cancelled at checkpoint '") + site + "'"));
  }
  if (spec.hooks.on_site) spec.hooks.on_site(site, virtual_ns);
}

/// Arm tracing and the per-phase hook on a freshly built team. The hook
/// fires on rank 0's phase marks only: one deterministic stream of sites
/// regardless of the host schedule.
void arm_team(const SortSpec& spec, sim::SimTeam& team) {
  if (!spec.trace_json_path.empty()) team.enable_tracing();
  if (spec.hooks.on_site || spec.hooks.cancel != nullptr) {
    team.set_phase_hook(
        [&spec](int rank, const char* name, double virtual_ns) {
          if (rank == 0) checkpoint(spec, name, virtual_ns);
        });
  }
}

void perf_write_trace(const std::string& path, const sim::SimTeam& team) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw StatusError(Status::io_error("cannot open trace file: " + path));
  }
  out << team.trace_json();
}

/// Collect the result: breakdowns, output runs, and the integrity checks
/// and fingerprints, all from one sweep over the output.
SortResult finish(const SortSpec& spec, sim::SimTeam& team,
                  const ModelRuntime& rt, const Checksum& input,
                  std::uint64_t input_pairs) {
  checkpoint(spec, "verify", team.elapsed_ns());
  SortResult res;
  res.n = spec.n;
  res.record = spec.record;
  const int passes = rt.passes_used.load(std::memory_order_relaxed);
  res.passes = passes >= 0 ? passes : radix_passes(spec.radix_bits);
  res.elapsed_ns = team.elapsed_ns();
  res.per_proc.reserve(static_cast<std::size_t>(spec.nprocs));
  for (int r = 0; r < spec.nprocs; ++r) {
    res.per_proc.push_back(team.breakdown_of(r));
  }
  res.phases = team.mean_phase_report();
  const ModelRuntime::Runs runs = rt.output();
  res.run_sizes.reserve(runs.keys.size());
  for (const auto& run : runs.keys) res.run_sizes.push_back(run.size());
  if (spec.keep_output) {
    res.output.reserve(spec.n);
    for (const auto& run : runs.keys) {
      res.output.insert(res.output.end(), run.begin(), run.end());
    }
    if (rt.paired()) res.payload_output.reserve(spec.n);
    for (const auto& run : runs.pays) {
      res.payload_output.insert(res.payload_output.end(), run.begin(),
                                run.end());
    }
  }
  const RunDigest d = digest_runs(runs.keys, runs.pays);
  // Paired verification adds exact (key, payload) multiset preservation
  // and stability — every algorithm here is stable (LSD radix by
  // construction; the sample-sort skeleton — and the MSD and mergesort
  // backends riding on it — because the splitter tie-break routes equal
  // keys by source rank, partitions ascend by rank, and every local
  // payload mirror is a stable record sort).
  res.verified = !spec.verify ||
                 (d.sorted && d.keys == input &&
                  (!rt.paired() || (d.pairs == input_pairs && d.stable)));
  DSM_CHECK(res.verified, "sort produced an incorrect result");
  res.input_checksum = input;
  res.run_hash = d.order_hash;
  if (!spec.trace_json_path.empty()) {
    perf_write_trace(spec.trace_json_path, team);
  }
  return res;
}

/// Frees the rank's thread-local radix workspace when its body ends,
/// however it ends, except on rank 0. Ranks 1..p-1 run on pooled threads
/// that outlive the sort (common/team.hpp), and a kept workspace stays
/// sized for the largest share of keys its thread ever sorted: on the
/// paper mix that held peak RSS ~12% higher. Rank 0 runs on the calling
/// thread, whose workspace the caller's next sort reuses.
struct WorkspaceRelease {
  bool pooled_thread;
  ~WorkspaceRelease() {
    if (pooled_thread) tls_radix_workspace() = RadixWorkspace{};
  }
};

/// The one driver: build the team and the model runtime, generate the
/// input into it (host-side, uncharged — the paper times sorting, not
/// initialisation), run the algorithm's rank body, finish.
SortResult run_sort_impl(const SortSpec& spec,
                         const machine::MachineParams& mp) {
  sim::SimTeam team(spec.nprocs, mp);
  arm_team(spec, team);
  const std::unique_ptr<ModelRuntime> rt = make_runtime(spec, team);
  checkpoint(spec, "keygen", 0.0);
  const Checksum input = generate_partitions_cached(
      spec.dist, spec.n, spec.nprocs, spec.radix_bits, spec.seed, rt->homes(),
      [&](int r) { return rt->part(0, r); });
  const std::uint64_t input_pairs = rt->label_payloads();
  team.run([&](sim::ProcContext& ctx) {
    const WorkspaceRelease release{ctx.rank() != 0};
    if (spec.algo == Algo::kRadix) {
      radix_rank(ctx, *rt);
    } else {
      // kSample, kMsdRadix and kMergesort all run the sample-sort skeleton.
      sample_rank(ctx, *rt);
    }
  });
  return finish(spec, team, *rt, input, input_pairs);
}

}  // namespace

const char* algo_name(Algo a) { return enum_name<Algo>(kAlgoNames, a); }

const char* model_name(Model m) { return enum_name<Model>(kModelNames, m); }

Algo algo_from_name(const std::string& name) {
  return enum_from_name_or_throw<Algo>(kAlgoNames, name, "algorithm");
}

Model model_from_name(const std::string& name) {
  return enum_from_name_or_throw<Model>(kModelNames, name, "model");
}

Result<Algo> try_algo_from_name(const std::string& name) {
  return enum_from_name<Algo>(kAlgoNames, name, "algorithm");
}

Result<Model> try_model_from_name(const std::string& name) {
  return enum_from_name<Model>(kModelNames, name, "model");
}

machine::MachineParams SortSpec::resolved_machine() const {
  return machine.value_or(machine::MachineParams::origin2000_for_keys(n));
}

Status SortSpec::validate_status() const {
  std::string v;
  const auto violation = [&v](const std::string& msg) {
    if (!v.empty()) v += "; ";
    v += msg;
  };
  if (!(nprocs >= 1 && nprocs <= 1024)) {
    violation("nprocs must be in [1, 1024], got " + std::to_string(nprocs));
  } else if (n < static_cast<Index>(nprocs)) {
    // Only meaningful against a sane nprocs.
    violation("need at least one key per process (n=" + std::to_string(n) +
              ", nprocs=" + std::to_string(nprocs) + ")");
  }
  if (!(radix_bits >= 1 && radix_bits <= 16)) {
    violation("radix bits must be in [1, 16], got " +
              std::to_string(radix_bits));
  }
  if (ablations.sample_count < 1) {
    violation("sample count must be >= 1, got " +
              std::to_string(ablations.sample_count));
  }
  if (ablations.sample_group_size < 1) {
    violation("sample group size must be >= 1, got " +
              std::to_string(ablations.sample_group_size));
  }
  if (!algo_supports_model(algo, model)) {
    violation("CC-SAS-NEW is a radix-sort restructuring only");
  }
  if (keys::record_info(record).has_payload) {
    // Payload-carrying records (DESIGN.md §11). The payload is the key's
    // 32-bit global input index, and two message-layer ablations reorganise
    // keys receiver-side in ways the host payload mirror cannot replay.
    if (n > (Index{1} << 32)) {
      violation("record '" + std::string(keys::record_name(record)) +
                "' carries a 32-bit payload index; n must be <= 2^32, got " +
                std::to_string(n));
    }
    if (algo == Algo::kRadix && model == Model::kMpi &&
        !ablations.mpi_chunk_messages) {
      violation("record '" + std::string(keys::record_name(record)) +
                "' is not supported by the coalesced-message MPI radix "
                "ablation (payloads need chunked messages)");
    }
    if (algo == Algo::kRadix && model == Model::kShmem &&
        ablations.shmem_use_put) {
      violation("record '" + std::string(keys::record_name(record)) +
                "' is not supported by the SHMEM put-based radix ablation "
                "(payloads need the get path)");
    }
  }
  try {
    resolved_machine().validate();
  } catch (const Error& e) {
    violation(e.what());
  }
  if (v.empty()) return Status();
  return Status::invalid_argument("invalid SortSpec: " + v);
}

void SortSpec::validate() const {
  Status s = validate_status();
  if (!s.ok()) throw StatusError(std::move(s));
}

Result<SortResult> try_run_sort(const SortSpec& spec) {
  Status valid = spec.validate_status();
  if (!valid.ok()) return valid;
  try {
    return run_sort_impl(spec, spec.resolved_machine());
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  }
}

SortResult run_sort(const SortSpec& spec) {
  Result<SortResult> r = try_run_sort(spec);
  if (!r.ok()) throw StatusError(r.status());
  return std::move(r).value();
}

double seq_baseline_ns(Index n, keys::Dist dist, int radix_bits,
                       const machine::MachineParams& machine,
                       std::uint64_t seed) {
  sim::SimTeam team(1, machine);
  std::vector<Key> keys(n), tmp(n);
  const sas::HomeMap homes(n, 1);
  generate_partitions_cached(dist, n, 1, radix_bits, seed, homes,
                             [&](int) { return std::span<Key>(keys); });
  team.run([&](sim::ProcContext& ctx) {
    local_radix_sort(ctx, keys, tmp, radix_bits);
  });
  DSM_CHECK(std::is_sorted(keys.begin(), keys.end()),
            "sequential baseline failed to sort");
  return team.elapsed_ns();
}

double SortResult::imbalance() const {
  if (run_sizes.empty() || n == 0) return 1.0;
  Index mx = 0;
  for (const Index s : run_sizes) mx = std::max(mx, s);
  const double mean =
      static_cast<double>(n) / static_cast<double>(run_sizes.size());
  return static_cast<double>(mx) / mean;
}

double speedup(double baseline_ns, double parallel_ns) {
  DSM_REQUIRE(parallel_ns > 0, "parallel time must be positive");
  return baseline_ns / parallel_ns;
}

}  // namespace dsm::sort
