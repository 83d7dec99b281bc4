// Ablation (§3.1): how the global histogram is accumulated. CC-SAS uses a
// fine-grained parallel-prefix tree over shared memory (cheap, O(B log p)
// work per process); MPI/SHMEM are forced to allgather every local
// histogram and redundantly compute prefixes locally (O(B p) work per
// process, plus the collective's fixed cost). This is the paper's
// explanation for CC-SAS winning small problem sizes.
//
// Measures one histogram-accumulation round in isolation for each
// mechanism, across process counts and radix sizes.
#include "bench_common.hpp"

#include "msg/communicator.hpp"
#include "sas/prefix_tree.hpp"
#include "shmem/shmem.hpp"
#include "sim/team.hpp"

namespace {

using namespace dsm;

// One accumulation round: local histogram already computed (all ones);
// returns elapsed virtual ns for the collective + prefix computation.
double ccsas_tree_round(int p, int radix_bits) {
  sim::SimTeam team(p, machine::MachineParams::origin2000());
  const std::size_t buckets = std::size_t{1} << radix_bits;
  sas::BucketScan scan(p, buckets);
  team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint64_t> local(buckets, 1), rp(buckets), g(buckets);
    scan.scan(ctx, local, rp, g);
  });
  return team.elapsed_ns();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M", "16,32,64",
                                      {"radixes"});
    ArgParser args(argc, argv);
    const auto radixes = args.get_ints("radixes", "8,11,12");
    std::cout << "== Ablation: global histogram accumulation mechanisms "
                 "(one round, us) ==\n\n";

    TextTable t({"procs", "radix", "CC-SAS tree", "SHMEM fcollect",
                 "MPI allgather (NEW)", "MPI allgather (SGI)"});
    for (const int p : env.procs) {
      for (const int r : radixes) {
        const double tree = ccsas_tree_round(p, r);

        // SHMEM and MPI rounds, built with their real runtimes:
        double shmem_ns = 0, mpi_new_ns = 0, mpi_sgi_ns = 0;
        {
          sim::SimTeam team(p, machine::MachineParams::origin2000());
          shmem::SymmetricHeap h(p, 1 << 10);
          shmem::Shmem sh(team, h);
          const std::size_t buckets = std::size_t{1} << r;
          team.run([&](sim::ProcContext& ctx) {
            std::vector<std::uint64_t> local(buckets, 1);
            std::vector<std::uint64_t> all(buckets *
                                           static_cast<std::size_t>(p));
            sh.fcollect<std::uint64_t>(ctx, local, all);
            ctx.busy_cycles(static_cast<double>(all.size()) *
                            ctx.params().cpu.scan_cycles);
            ctx.stream(all.size() * 8, all.size() * 8);
          });
          shmem_ns = team.elapsed_ns();
        }
        for (const msg::Impl impl : {msg::Impl::kDirect, msg::Impl::kStaged}) {
          sim::SimTeam team(p, machine::MachineParams::origin2000());
          msg::Communicator comm(team, impl);
          const std::size_t buckets = std::size_t{1} << r;
          team.run([&](sim::ProcContext& ctx) {
            std::vector<std::uint64_t> local(buckets, 1);
            std::vector<std::uint64_t> all(buckets *
                                           static_cast<std::size_t>(p));
            comm.allgather<std::uint64_t>(ctx, local, all);
            ctx.busy_cycles(static_cast<double>(all.size()) *
                            ctx.params().cpu.scan_cycles);
            ctx.stream(all.size() * 8, all.size() * 8);
          });
          (impl == msg::Impl::kDirect ? mpi_new_ns : mpi_sgi_ns) =
              team.elapsed_ns();
        }

        t.add_row({std::to_string(p), std::to_string(r),
                   fmt_fixed(tree / 1e3, 1), fmt_fixed(shmem_ns / 1e3, 1),
                   fmt_fixed(mpi_new_ns / 1e3, 1),
                   fmt_fixed(mpi_sgi_ns / 1e3, 1)});
      }
    }
    std::cout << t.render();
    bench::maybe_csv(env, "ablation_histogram", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
