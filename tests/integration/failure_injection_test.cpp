// Failure injection through the full stack: runtime misuse must raise
// dsm::Error on the whole team (no hangs, no corruption), and a poisoned
// team must refuse further use.
#include <gtest/gtest.h>

#include <string>

#include "msg/communicator.hpp"
#include "sas/prefix_tree.hpp"
#include "shmem/shmem.hpp"
#include "sim/team.hpp"

namespace dsm {
namespace {

machine::MachineParams origin() { return machine::MachineParams::origin2000(); }

TEST(FailureInjection, RankThrowsInsideCollectivePhase) {
  sim::SimTeam team(8, origin());
  EXPECT_THROW(team.run([](sim::ProcContext& ctx) {
    ctx.barrier();
    if (ctx.rank() == 5) throw Error("injected");
    ctx.barrier();  // everyone else parks here; poison must free them
    ctx.barrier();
  }),
               Error);
}

// The ranks released by the poison throw too, most of them at lower
// ranks than the thrower; the caller must see the cause.
TEST(FailureInjection, RethrowsTheFailureNotThePoisonWakeups) {
  sim::SimTeam team(8, origin());
  try {
    team.run([](sim::ProcContext& ctx) {
      ctx.barrier();
      if (ctx.rank() == 6) throw Error("injected at rank 6");
      ctx.barrier();
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected at rank 6"),
              std::string::npos)
        << e.what();
  }
}

TEST(FailureInjection, PoisonedTeamRefusesReuse) {
  sim::SimTeam team(2, origin());
  EXPECT_THROW(team.run([](sim::ProcContext& ctx) {
    if (ctx.rank() == 0) throw Error("boom");
    ctx.barrier();
  }),
               Error);
  EXPECT_THROW(team.run([](sim::ProcContext&) {}), Error);
}

TEST(FailureInjection, ExchangeWindowOverflowRaisesTeamWide) {
  sim::SimTeam team(4, origin());
  msg::Communicator comm(team, msg::Impl::kDirect);
  std::vector<std::byte> window(16);
  const std::vector<std::byte> payload(32);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<msg::Communicator::Send> sends;
    if (ctx.rank() == 1) {
      // 32 bytes into a 16-byte window.
      sends.push_back(msg::Communicator::Send{2, 0, payload.data(), 32});
    }
    comm.exchange(ctx, sends, std::span<std::byte>(window.data(), 16));
    ctx.barrier();
  }),
               Error);
}

TEST(FailureInjection, MismatchedAllgatherBlocks) {
  sim::SimTeam team(4, origin());
  msg::Communicator comm(team, msg::Impl::kDirect);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<int> in(static_cast<std::size_t>(1 + ctx.rank() % 2));
    std::vector<int> out(6);
    comm.allgather<int>(ctx, in, out);
  }),
               Error);
}

TEST(FailureInjection, ShmemGetPastSegment) {
  sim::SimTeam team(2, origin());
  shmem::SymmetricHeap heap(2, 128);
  shmem::Shmem sh(team, heap);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::byte buf[64];
    std::vector<shmem::GetOp> gets;
    if (ctx.rank() == 0) {
      gets.push_back(shmem::GetOp{buf, 1, 100, 64});  // 100+64 > 128
    }
    sh.get_phase(ctx, gets);
  }),
               Error);
}

TEST(FailureInjection, ShmemPutPastSegment) {
  sim::SimTeam team(2, origin());
  shmem::SymmetricHeap heap(2, 128);
  shmem::Shmem sh(team, heap);
  const std::byte buf[64] = {};
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<shmem::PutOp> puts;
    if (ctx.rank() == 1) {
      puts.push_back(shmem::PutOp{buf, 0, 96, 64});
    }
    sh.put_phase(ctx, puts);
  }),
               Error);
}

TEST(FailureInjection, BucketScanGeometryMismatch) {
  sim::SimTeam team(4, origin());
  sas::BucketScan scan(4, 16);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint64_t> local(16), rp(16), g(8);  // bad g size
    scan.scan(ctx, local, rp, g);
  }),
               Error);
}

TEST(FailureInjection, NoCorruptionAfterRejectedExchange) {
  // The overflow check must fire before any bytes are copied into other
  // windows.
  sim::SimTeam team(2, origin());
  msg::Communicator comm(team, msg::Impl::kDirect);
  std::vector<std::uint32_t> window(4, 0xdeadbeefu);
  const std::vector<std::uint32_t> payload{1, 2, 3, 4, 5};
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<msg::Communicator::Send> sends;
    if (ctx.rank() == 0) {
      sends.push_back(msg::Communicator::Send{
          1, 0, reinterpret_cast<const std::byte*>(payload.data()), 20});
    }
    comm.exchange(ctx, sends,
                  std::as_writable_bytes(std::span<std::uint32_t>(window)));
  }),
               Error);
  for (const std::uint32_t w : window) EXPECT_EQ(w, 0xdeadbeefu);
}

}  // namespace
}  // namespace dsm
