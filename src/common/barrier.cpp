#include "common/barrier.hpp"

#include <thread>

namespace dsm {
namespace {

// Enough yields to cover a round whose members arrive together, few
// enough that a waiter behind a long local phase soon sleeps.
constexpr int kSpins = 64;

}  // namespace

std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old, bool spin) {
  std::uint32_t now = word.load(std::memory_order_acquire);
  for (int i = 0; spin && i < kSpins && now == old; ++i) {
    std::this_thread::yield();
    now = word.load(std::memory_order_acquire);
  }
  while (now == old) {
    word.wait(old, std::memory_order_acquire);
    now = word.load(std::memory_order_acquire);
  }
  return now;
}

CentralBarrier::CentralBarrier(int parties)
    : parties_(parties),
      spin_(static_cast<unsigned>(parties) <=
            std::thread::hardware_concurrency()) {
  DSM_REQUIRE(parties >= 1, "barrier needs at least one party");
}

void CentralBarrier::arrive_and_wait(const std::function<void()>& completion) {
  // Read before arriving: the round this arrival belongs to cannot be
  // released until it is counted.
  const std::uint32_t seen = state_.load(std::memory_order_acquire);
  if ((seen & kPoisonedBit) != 0) throw BarrierPoisoned();
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    if (completion) {
      try {
        completion();
      } catch (...) {
        // Release the waiters as poisoned, then propagate to the runner.
        poison();
        throw;
      }
    }
    arrived_.store(0, std::memory_order_relaxed);
    // Release: publishes the completion's writes and the reset count.
    state_.fetch_add(2, std::memory_order_release);
    state_.notify_all();
    return;
  }
  const std::uint32_t now = await_change(state_, seen, spin_);
  if ((now >> 1) == (seen >> 1)) throw BarrierPoisoned();
}

void CentralBarrier::poison() {
  state_.fetch_or(kPoisonedBit, std::memory_order_release);
  state_.notify_all();
}

bool CentralBarrier::poisoned() const {
  return (state_.load(std::memory_order_acquire) & kPoisonedBit) != 0;
}

}  // namespace dsm
