#include "common/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "common/team.hpp"

namespace dsm {
namespace {

TEST(CentralBarrier, SingleParty) {
  CentralBarrier b(1);
  int completions = 0;
  b.arrive_and_wait([&] { ++completions; });
  b.arrive_and_wait();
  EXPECT_EQ(completions, 1);
}

TEST(CentralBarrier, RejectsZeroParties) {
  EXPECT_THROW(CentralBarrier(0), Error);
}

TEST(CentralBarrier, SynchronisesPhases) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  CentralBarrier b(kThreads);
  std::atomic<int> in_phase{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        in_phase.fetch_add(1);
        b.arrive_and_wait();
        // All kThreads must have entered before any leaves.
        if (in_phase.load() < kThreads * (round + 1)) violated = true;
        b.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violated.load());
}

TEST(CentralBarrier, CompletionRunsExactlyOncePerRound) {
  constexpr int kThreads = 6;
  constexpr int kRounds = 20;
  CentralBarrier b(kThreads);
  std::atomic<int> completions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        b.arrive_and_wait([&] { completions.fetch_add(1); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(completions.load(), kRounds);
}

TEST(CentralBarrier, CompletionRunsOncePerRoundAfterAllArrive) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 3;
  CentralBarrier b(kRanks);
  std::atomic<int> before{0};
  int rounds = 0;  // written only by each round's last arriver
  run_spmd(kRanks, [&](int) {
    for (int round = 0; round < kRounds; ++round) {
      before.fetch_add(1);
      b.arrive_and_wait([&] {
        // Every rank of this round must have arrived already.
        EXPECT_EQ(before.load(), kRanks * (rounds + 1));
        ++rounds;
      });
    }
  });
  EXPECT_EQ(rounds, kRounds);
}

TEST(CentralBarrier, BarrierOrdersRoundsAcrossRanks) {
  constexpr int kRanks = 16;
  constexpr int kRounds = 4;
  CentralBarrier b(kRanks);
  std::mutex mu;
  std::vector<int> log;
  run_spmd(kRanks, [&](int) {
    for (int round = 0; round < kRounds; ++round) {
      {
        std::lock_guard lock(mu);
        log.push_back(round);
      }
      b.arrive_and_wait();
    }
  });
  // Rounds never interleave: the log is 16 zeros, then 16 ones, ...
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kRanks * kRounds));
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i], static_cast<int>(i / kRanks)) << i;
  }
}

TEST(CentralBarrier, CompletionRunsBeforeRelease) {
  constexpr int kThreads = 4;
  CentralBarrier b(kThreads);
  std::atomic<int> value{0};
  std::atomic<bool> saw_stale{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      b.arrive_and_wait([&] { value = 42; });
      if (value.load() != 42) saw_stale = true;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(saw_stale.load());
}

TEST(CentralBarrier, StressManyRanksManyRounds) {
  constexpr int kRanks = 64;
  constexpr int kRounds = 50;
  CentralBarrier b(kRanks);
  std::atomic<std::uint64_t> sum{0};
  int completions = 0;  // written only by each round's last arriver
  run_spmd(kRanks, [&](int r) {
    for (int round = 0; round < kRounds; ++round) {
      sum.fetch_add(static_cast<std::uint64_t>(r));
      b.arrive_and_wait([&] {
        EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(round + 1) *
                                  (kRanks - 1) * kRanks / 2);
        ++completions;
      });
    }
  });
  EXPECT_EQ(completions, kRounds);
}

TEST(CentralBarrier, PoisonWakesWaiters) {
  CentralBarrier b(2);
  std::thread waiter([&] {
    EXPECT_THROW(b.arrive_and_wait(), Error);
  });
  // Give the waiter time to park, then poison.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b.poison();
  waiter.join();
  EXPECT_TRUE(b.poisoned());
  EXPECT_THROW(b.arrive_and_wait(), Error);
}

TEST(CentralBarrier, ThrowingCompletionPoisons) {
  CentralBarrier b(2);
  std::thread waiter([&] {
    EXPECT_THROW(b.arrive_and_wait(), Error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_THROW(b.arrive_and_wait([] { throw Error("boom"); }), Error);
  waiter.join();
  EXPECT_TRUE(b.poisoned());
}

}  // namespace
}  // namespace dsm
