#include "msg/communicator.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "sim/team.hpp"

namespace dsm::msg {
namespace {

machine::MachineParams origin() { return machine::MachineParams::origin2000(); }

std::span<const std::byte> bytes_of(const std::vector<std::uint32_t>& v) {
  return std::as_bytes(std::span<const std::uint32_t>(v));
}

TEST(Communicator, AllgatherConcatenatesByRank) {
  for (const Impl impl : {Impl::kDirect, Impl::kStaged}) {
    sim::SimTeam team(4, origin());
    Communicator comm(team, impl);
    std::vector<std::vector<int>> got(4);
    team.run([&](sim::ProcContext& ctx) {
      std::vector<int> in{ctx.rank() * 10, ctx.rank() * 10 + 1};
      std::vector<int> out(8);
      comm.allgather<int>(ctx, in, out);
      got[ctx.rank()] = out;
    });
    for (int r = 0; r < 4; ++r) {
      const std::vector<int> expect{0, 1, 10, 11, 20, 21, 30, 31};
      EXPECT_EQ(got[r], expect) << impl_name(impl) << " rank " << r;
    }
  }
}

TEST(Communicator, AllgatherChargesRmem) {
  sim::SimTeam team(4, origin());
  Communicator comm(team, Impl::kDirect);
  team.run([&](sim::ProcContext& ctx) {
    std::vector<int> in{1};
    std::vector<int> out(4);
    comm.allgather<int>(ctx, in, out);
  });
  EXPECT_GT(team.breakdown_of(0).rmem_ns, 0.0);
}

TEST(Communicator, StagedAllgatherCostsMore) {
  auto run_one = [&](Impl impl) {
    sim::SimTeam team(8, origin());
    Communicator comm(team, impl);
    team.run([&](sim::ProcContext& ctx) {
      std::vector<std::uint64_t> in(256, 1);
      std::vector<std::uint64_t> out(256 * 8);
      comm.allgather<std::uint64_t>(ctx, in, out);
    });
    return team.elapsed_ns();
  };
  EXPECT_GT(run_one(Impl::kStaged), run_one(Impl::kDirect));
}

TEST(Communicator, AllgatherSizeMismatchRejected) {
  sim::SimTeam team(2, origin());
  Communicator comm(team, Impl::kDirect);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<int> in(ctx.rank() == 0 ? 2 : 3);  // unequal blocks
    std::vector<int> out(5);
    comm.allgather<int>(ctx, in, out);
  }),
               Error);
}

TEST(Communicator, ExchangeDeliversAtOffsets) {
  for (const Impl impl : {Impl::kDirect, Impl::kStaged}) {
    sim::SimTeam team(3, origin());
    Communicator comm(team, impl);
    // Each rank sends its rank id (as 4 bytes) to every rank's window at
    // offset 4*src.
    std::vector<std::vector<std::uint32_t>> windows(
        3, std::vector<std::uint32_t>(3, 0xffffffffu));
    team.run([&](sim::ProcContext& ctx) {
      const int r = ctx.rank();
      const std::vector<std::uint32_t> payload{
          static_cast<std::uint32_t>(r)};
      std::vector<Communicator::Send> sends;
      for (int d = 0; d < 3; ++d) {
        sends.push_back(Communicator::Send{
            d, static_cast<std::uint64_t>(r) * 4,
            bytes_of(payload).data(), 4});
      }
      comm.exchange(ctx, sends,
                    std::as_writable_bytes(std::span<std::uint32_t>(
                        windows[static_cast<std::size_t>(r)])));
    });
    for (int r = 0; r < 3; ++r) {
      for (int s = 0; s < 3; ++s) {
        EXPECT_EQ(windows[r][s], static_cast<std::uint32_t>(s))
            << impl_name(impl);
      }
    }
  }
}

TEST(Communicator, ExchangeRandomisedAllToAll) {
  const int p = 6;
  sim::SimTeam team(p, origin());
  Communicator comm(team, Impl::kDirect);
  // Rank s sends (s*p+d) repeated (s+d+1) times to d, at precomputed
  // offsets; verify every word lands.
  std::vector<std::vector<std::uint32_t>> payloads(p * p);
  std::vector<std::vector<std::uint32_t>> windows(p);
  std::vector<std::vector<std::uint64_t>> offsets(p,
                                                  std::vector<std::uint64_t>(p));
  for (int d = 0; d < p; ++d) {
    std::uint64_t off = 0;
    for (int s = 0; s < p; ++s) {
      offsets[s][d] = off;
      const std::size_t cnt = static_cast<std::size_t>(s + d + 1);
      payloads[s * p + d].assign(cnt, static_cast<std::uint32_t>(s * p + d));
      off += cnt * 4;
    }
    windows[d].resize(off / 4);
  }
  team.run([&](sim::ProcContext& ctx) {
    const int s = ctx.rank();
    std::vector<Communicator::Send> sends;
    for (int d = 0; d < p; ++d) {
      sends.push_back(Communicator::Send{
          d, offsets[s][d], bytes_of(payloads[s * p + d]).data(),
          payloads[s * p + d].size() * 4});
    }
    comm.exchange(ctx, sends,
                  std::as_writable_bytes(
                      std::span<std::uint32_t>(windows[s])));
  });
  for (int d = 0; d < p; ++d) {
    std::size_t idx = 0;
    for (int s = 0; s < p; ++s) {
      for (std::size_t k = 0; k < static_cast<std::size_t>(s + d + 1); ++k) {
        ASSERT_EQ(windows[d][idx++], static_cast<std::uint32_t>(s * p + d));
      }
    }
  }
}

TEST(Communicator, ExchangeOverflowRejected) {
  sim::SimTeam team(2, origin());
  Communicator comm(team, Impl::kDirect);
  std::vector<std::uint32_t> window(2);
  const std::vector<std::uint32_t> payload{1, 2, 3};
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<Communicator::Send> sends;
    if (ctx.rank() == 0) {
      sends.push_back(Communicator::Send{1, 4, bytes_of(payload).data(), 12});
    }
    comm.exchange(ctx, sends,
                  std::as_writable_bytes(std::span<std::uint32_t>(window)));
  }),
               Error);
}

TEST(Communicator, ExchangeBadDestinationRejected) {
  sim::SimTeam team(2, origin());
  Communicator comm(team, Impl::kDirect);
  std::vector<std::uint32_t> window(4);
  const std::vector<std::uint32_t> payload{1};
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<Communicator::Send> sends;
    if (ctx.rank() == 0) {
      sends.push_back(Communicator::Send{7, 0, bytes_of(payload).data(), 4});
    }
    comm.exchange(ctx, sends,
                  std::as_writable_bytes(std::span<std::uint32_t>(window)));
  }),
               Error);
}

TEST(Communicator, StagedExchangeSlowerThanDirect) {
  auto run_one = [&](Impl impl) {
    sim::SimTeam team(4, origin());
    Communicator comm(team, impl);
    std::vector<std::vector<std::uint32_t>> windows(
        4, std::vector<std::uint32_t>(3 << 16));
    std::vector<std::uint32_t> payload(1 << 16, 7);
    team.run([&](sim::ProcContext& ctx) {
      std::vector<Communicator::Send> sends;
      for (int d = 0; d < 4; ++d) {
        if (d == ctx.rank()) continue;
        // Each sender owns one slot of each destination window, so no
        // two ranks write the same bytes concurrently.
        const int slot = ctx.rank() < d ? ctx.rank() : ctx.rank() - 1;
        sends.push_back(Communicator::Send{
            d, static_cast<std::uint64_t>(slot) * payload.size() * 4,
            bytes_of(payload).data(), payload.size() * 4});
      }
      comm.exchange(ctx, sends,
                    std::as_writable_bytes(std::span<std::uint32_t>(
                        windows[static_cast<std::size_t>(ctx.rank())])));
    });
    return team.elapsed_ns();
  };
  EXPECT_GT(run_one(Impl::kStaged), 1.2 * run_one(Impl::kDirect));
}

TEST(Communicator, BarrierSynchronises) {
  sim::SimTeam team(4, origin());
  Communicator comm(team, Impl::kDirect);
  team.run([&](sim::ProcContext& ctx) {
    ctx.busy_cycles(500.0 * ctx.rank());
    comm.barrier(ctx);
  });
  const double t = team.breakdown_of(0).total_ns();
  for (int r = 1; r < 4; ++r) {
    EXPECT_NEAR(team.breakdown_of(r).total_ns(), t, 1e-6);
  }
}

}  // namespace
}  // namespace dsm::msg
