#include "common/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <system_error>
#include <thread>

#include "common/barrier.hpp"
#include "common/error.hpp"

namespace dsm {
namespace {

TEST(RunSpmd, RunsEveryRankExactlyOnce) {
  std::mutex mu;
  std::set<int> ranks;
  run_spmd(8, [&](int r) {
    std::lock_guard lock(mu);
    EXPECT_TRUE(ranks.insert(r).second);
  });
  EXPECT_EQ(ranks.size(), 8u);
  EXPECT_EQ(*ranks.begin(), 0);
  EXPECT_EQ(*ranks.rbegin(), 7);
}

// Rank 0 runs on the calling thread and every other rank on a thread of
// its own.
TEST(RunSpmd, RunsEveryRankExactlyOnceOnItsOwnThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<int> ranks;
  std::set<std::thread::id> threads;
  run_spmd(8, [&](int r) {
    std::lock_guard lock(mu);
    EXPECT_TRUE(ranks.insert(r).second);
    EXPECT_TRUE(threads.insert(std::this_thread::get_id()).second);
    EXPECT_EQ(r == 0, std::this_thread::get_id() == caller) << r;
  });
  EXPECT_EQ(ranks.size(), 8u);
  EXPECT_EQ(*ranks.begin(), 0);
  EXPECT_EQ(*ranks.rbegin(), 7);
}

TEST(RunSpmd, SingleProcessFastPath) {
  int calls = 0;
  run_spmd(1, [&](int r) {
    EXPECT_EQ(r, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(RunSpmd, PropagatesException) {
  EXPECT_THROW(
      run_spmd(4, [](int r) {
        if (r == 2) throw Error("rank 2 failed");
      }),
      Error);
}

TEST(RunSpmd, PropagatesLowestRankException) {
  try {
    run_spmd(4, [](int r) {
      if (r == 1) throw Error("rank 1");
      if (r == 3) throw Error("rank 3");
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos);
  }
}

TEST(RunSpmd, RejectsBadArguments) {
  EXPECT_THROW(run_spmd(0, [](int) {}), Error);
  EXPECT_THROW(run_spmd(4, {}), Error);
}

// A team whose failing rank poisons the barrier, as sim::SimTeam::run
// does, so ranks parked in a round are released instead of waiting on it.
void run_team(CentralBarrier& b, const std::function<void(int)>& body) {
  run_spmd(b.parties(), [&](int r) {
    try {
      body(r);
    } catch (...) {
      b.poison();
      throw;
    }
  });
}

// A one-rank team starts no thread, and its barrier rounds complete
// inline.
TEST(RunSpmd, SingleRankTeamCompletesRoundsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  CentralBarrier b(1);
  int calls = 0;
  run_team(b, [&](int r) {
    EXPECT_EQ(r, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
    b.arrive_and_wait([&] { ++calls; });
  });
  EXPECT_EQ(calls, 2);
}

// A run refused for its arguments starts no rank, so it cannot poison the
// team's barrier.
TEST(RunSpmd, RejectedRunLeavesTheTeamUsable) {
  EXPECT_THROW(CentralBarrier(0), Error);
  CentralBarrier b(2);
  EXPECT_THROW(run_spmd(b.parties(), {}), Error);
  EXPECT_EQ(b.parties(), 2);
  EXPECT_FALSE(b.poisoned());
  std::atomic<int> completions{0};
  run_team(b, [&](int) {
    b.arrive_and_wait([&] { completions.fetch_add(1); });
  });
  EXPECT_EQ(completions.load(), 1);
}

TEST(RunSpmd, PoisonedTeamRefusesReuse) {
  CentralBarrier b(4);
  b.poison();
  std::atomic<int> entered{0};
  try {
    run_team(b, [&](int) {
      entered.fetch_add(1);
      b.arrive_and_wait();
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("barrier poisoned"),
              std::string::npos);
  }
  EXPECT_EQ(entered.load(), 4);
}

// Ranks released by the poison throw too, some of them at lower ranks
// than the throwers; the lowest-ranked cause, not a wake-up, is what the
// caller sees.
TEST(RunSpmd, RethrowsTheErrorThatPoisonedTheTeam) {
  CentralBarrier b(8);
  std::atomic<int> released{0};
  try {
    run_team(b, [&](int r) {
      b.arrive_and_wait();
      if (r == 5) throw Error("rank 5 failed");
      if (r == 2) throw Error("rank 2 failed");
      try {
        b.arrive_and_wait();
      } catch (const BarrierPoisoned&) {
        released.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(released.load(), 6);
  EXPECT_TRUE(b.poisoned());
}

// Counts destructor runs, proving a rank's stack was unwound rather than
// abandoned.
struct Sentinel {
  std::atomic<int>* count;
  explicit Sentinel(std::atomic<int>* c) : count(c) {}
  ~Sentinel() { count->fetch_add(1); }
};

// A rank failing mid-run releases every rank parked in the next round
// with "barrier poisoned", and every rank's stack unwinds.
TEST(RunSpmd, PoisonReleasesAndUnwindsEveryParkedRank) {
  CentralBarrier b(16);
  std::atomic<int> destroyed{0};
  std::atomic<int> released{0};
  try {
    run_team(b, [&](int r) {
      const Sentinel guard(&destroyed);
      b.arrive_and_wait();
      if (r == 7) throw Error("rank 7 failed mid-run");
      try {
        b.arrive_and_wait();
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("barrier poisoned"),
                  std::string::npos);
        released.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 7"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(destroyed.load(), 16);
  EXPECT_EQ(released.load(), 15);
  EXPECT_TRUE(b.poisoned());
}

TEST(RunSpmd, RethrowsAThrowingCompletion) {
  CentralBarrier b(4);
  try {
    run_team(b, [&](int) {
      b.arrive_and_wait([] { throw Error("completion failed"); });
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("completion failed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(b.poisoned());
}

// A rank thread the OS refuses to start fails the run before any rank
// runs, so no rank is left parked in a round waiting for it, the team is
// not poisoned, and the next run starts every rank.
TEST(RunSpmd, RefusedThreadStartFailsTheRunBeforeAnyRankRuns) {
  // More ranks than the pool keeps parked, so threads must be started.
  constexpr int kRanks = 96;
  int starts = 0;
  detail::set_thread_start_hook([&] {
    if (++starts == 3) {
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again),
          "thread start refused");
    }
  });
  CentralBarrier b(kRanks);
  std::atomic<int> entered{0};
  const auto body = [&](int) {
    entered.fetch_add(1);
    b.arrive_and_wait();
  };
  EXPECT_THROW(run_team(b, body), std::system_error);
  detail::set_thread_start_hook({});
  EXPECT_EQ(starts, 3);
  EXPECT_EQ(entered.load(), 0);
  EXPECT_FALSE(b.poisoned());
  run_team(b, body);
  EXPECT_EQ(entered.load(), kRanks);
}

TEST(RunSpmd, SixtyFourRanks) {
  std::atomic<int> count{0};
  run_spmd(64, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

}  // namespace
}  // namespace dsm
