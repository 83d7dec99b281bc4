// A central barrier with a completion hook.
//
// The virtual-time engine needs a barrier where the *last arriver* runs a
// reconciliation step (max over virtual arrival times, discrete-event
// replay of an exchange epoch) while every other participant is still
// parked — so the reconciler sees all deposits and no participant races
// ahead before results are published.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/error.hpp"

namespace dsm {

/// Thrown to a rank released from (or arriving at) a poisoned barrier: the
/// consequence of another member's failure, never its cause.
class BarrierPoisoned : public Error {
 public:
  BarrierPoisoned() : Error("barrier poisoned: a team member failed") {}
};

/// Returns `word`'s value once it no longer holds `old`. With `spin`, it
/// yields a few times before it sleeps: a barrier round whose members
/// arrive together, or a parked rank thread's next task, usually comes
/// within microseconds, and a futex sleep and wake-up costs ~10 us.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old, bool spin);

class CentralBarrier {
 public:
  explicit CentralBarrier(int parties);

  CentralBarrier(const CentralBarrier&) = delete;
  CentralBarrier& operator=(const CentralBarrier&) = delete;

  /// Block until all parties arrive. The last arriver runs `completion`
  /// (if nonempty) before anyone is released. SPMD callers must pass the
  /// same logical completion from every rank; the one executed is the last
  /// arriver's. Throws BarrierPoisoned if the barrier is (or becomes)
  /// poisoned; a throwing `completion` poisons it and propagates to the
  /// last arriver.
  void arrive_and_wait(const std::function<void()>& completion = {});

  /// Mark the barrier unusable and wake all waiters with BarrierPoisoned.
  /// Called when one rank fails so the rest of the team cannot deadlock
  /// waiting for it. Idempotent.
  void poison();

  bool poisoned() const;

  int parties() const { return parties_; }

 private:
  static constexpr std::uint32_t kPoisonedBit = 1;

  const int parties_;
  // Only a team with no more members than hardware threads spins; an
  // oversubscribed one sleeps at once.
  const bool spin_;
  std::atomic<int> arrived_{0};
  // 2 x released rounds, plus kPoisonedBit; waiters wait for it to change.
  std::atomic<std::uint32_t> state_{0};
};

}  // namespace dsm
