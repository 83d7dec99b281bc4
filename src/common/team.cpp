#include "common/team.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/barrier.hpp"
#include "common/error.hpp"

namespace dsm {
namespace {

/// glibc gives each new thread its own malloc arena, up to 8 per core, and
/// an arena keeps its high-water mark. Rank threads are many (p <= 64 per
/// sort, several sorts at once), so uncapped they spread every sort's
/// buffers over dozens of arenas and peak RSS grows by ~40% on the paper
/// mix. One arena per hardware thread keeps malloc contention low and peak
/// RSS within ~7% of a run with every rank on one thread.
void cap_malloc_arenas() {
#if defined(__GLIBC__)
  [[maybe_unused]] static const int capped = mallopt(
      M_ARENA_MAX,
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
#endif
}

/// A rank thread, parked between runs. The caller sets `task`, `rank` and
/// `spin` and bumps `start`; the thread runs the task, then copies `start`
/// into `done`. A null task makes the thread return.
struct RankThread {
  std::atomic<std::uint32_t> start{0};
  std::atomic<std::uint32_t> done{0};
  const std::function<void(int)>* task = nullptr;
  int rank = 0;
  bool spin = false;
  std::thread thread;
};

void serve(RankThread* t) {
  std::uint32_t seen = 0;
  bool spin = false;  // the last task's team's
  for (;;) {
    seen = await_change(t->start, seen, spin);
    spin = t->spin;
    if (t->task == nullptr) return;
    (*t->task)(t->rank);  // never throws: run_spmd's task catches all
    t->done.store(seen, std::memory_order_release);
    t->done.notify_one();
  }
}

/// Makes `threads` return, then joins and frees them.
void stop(const std::vector<RankThread*>& threads) {
  for (RankThread* t : threads) {
    t->task = nullptr;
    t->start.fetch_add(1, std::memory_order_release);
    t->start.notify_one();
  }
  for (RankThread* t : threads) {
    t->thread.join();
    delete t;
  }
}

/// The process's parked rank threads. Starting p - 1 threads per sort
/// costs more than a whole 4096-key sort's rounds, so up to one thread per
/// hardware thread is kept parked and reused. Threads beyond that, which
/// only oversubscribed teams or concurrent sorts need, exit when their run
/// ends: kept, each holds on to what it allocated, and with ~250 of them
/// the paper mix's peak RSS rose ~18%.
class RankThreadPool {
 public:
  static RankThreadPool& instance() {
    // Never destroyed, so a run during static destruction still works;
    // the parked threads are stopped and joined at exit.
    static RankThreadPool* const pool = [] {
      auto* p = new RankThreadPool;
      std::atexit([] { instance().stop_idle(); });
      // A forked child has none of the parent's threads, so it forgets
      // them (their records leak). The lock is held across fork so the
      // child never inherits it mid-update.
      pthread_atfork([] { instance().mu_.lock(); },
                     [] { instance().mu_.unlock(); },
                     [] {
                       instance().idle_.clear();
                       instance().mu_.unlock();
                     });
      return p;
    }();
    return *pool;
  }

  /// `n` parked threads, starting any the pool lacks. If a start fails,
  /// every thread taken goes back and the failure propagates: no task has
  /// been handed out yet.
  std::vector<RankThread*> acquire(std::size_t n) {
    std::vector<RankThread*> out;
    out.reserve(n);
    std::lock_guard lock(mu_);
    try {
      while (out.size() < n && !idle_.empty()) {
        out.push_back(idle_.back());
        idle_.pop_back();
      }
      while (out.size() < n) {
        if (start_hook_) start_hook_();
        auto t = std::make_unique<RankThread>();
        t->thread = std::thread(serve, t.get());
        out.push_back(t.release());
      }
    } catch (...) {
      idle_.insert(idle_.end(), out.begin(), out.end());
      throw;
    }
    return out;
  }

  void release(const std::vector<RankThread*>& threads) {
    std::vector<RankThread*> surplus;
    {
      std::lock_guard lock(mu_);
      for (RankThread* t : threads) {
        (idle_.size() < max_idle_ ? idle_ : surplus).push_back(t);
      }
    }
    stop(surplus);
  }

  void stop_idle() {
    std::vector<RankThread*> idle;
    {
      std::lock_guard lock(mu_);
      idle.swap(idle_);
    }
    stop(idle);
  }

  void set_start_hook(std::function<void()> hook) {
    std::lock_guard lock(mu_);
    start_hook_ = std::move(hook);
  }

 private:
  const std::size_t max_idle_ =
      std::max(1u, std::thread::hardware_concurrency());
  std::mutex mu_;
  std::vector<RankThread*> idle_;
  std::function<void()> start_hook_;
};

}  // namespace

void run_spmd(int nprocs, const std::function<void(int)>& body) {
  DSM_REQUIRE(nprocs >= 1, "run_spmd needs at least one process");
  DSM_REQUIRE(static_cast<bool>(body), "run_spmd needs a body");

  cap_malloc_arenas();
  std::vector<std::exception_ptr> failures(static_cast<std::size_t>(nprocs));
  std::vector<std::exception_ptr> wakeups(static_cast<std::size_t>(nprocs));
  const std::function<void(int)> run_rank = [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    try {
      body(rank);
    } catch (const BarrierPoisoned&) {
      wakeups[r] = std::current_exception();
    } catch (...) {
      failures[r] = std::current_exception();
    }
  };
  // Rank 0 runs on the calling thread, which would otherwise only wait
  // (and a one-rank team takes no thread at all).
  RankThreadPool& pool = RankThreadPool::instance();
  const std::vector<RankThread*> threads =
      pool.acquire(static_cast<std::size_t>(nprocs - 1));
  // Like CentralBarrier, only a team that fits the host's hardware
  // threads spins while it waits.
  const bool spin =
      static_cast<unsigned>(nprocs) <= std::thread::hardware_concurrency();
  std::vector<std::uint32_t> tickets(threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    RankThread* t = threads[i];
    t->task = &run_rank;
    t->rank = static_cast<int>(i) + 1;
    t->spin = spin;
    tickets[i] = t->start.load(std::memory_order_relaxed) + 1;
    t->start.store(tickets[i], std::memory_order_release);
    t->start.notify_one();
  }
  run_rank(0);
  for (std::size_t i = 0; i < threads.size(); ++i) {
    std::uint32_t done = threads[i]->done.load(std::memory_order_acquire);
    while (done != tickets[i]) {
      done = await_change(threads[i]->done, done, spin);
    }
  }
  pool.release(threads);
  for (const auto* errors : {&failures, &wakeups}) {
    for (const auto& e : *errors) {
      if (e) std::rethrow_exception(e);
    }
  }
}

namespace detail {

void set_thread_start_hook(std::function<void()> hook) {
  RankThreadPool::instance().set_start_hook(std::move(hook));
}

}  // namespace detail

const char* engine_name(SpmdEngine e) {
  switch (e) {
    case SpmdEngine::kThreads: return "threads";
  }
  return "?";
}

SpmdEngine default_spmd_engine() { return SpmdEngine::kThreads; }

}  // namespace dsm
