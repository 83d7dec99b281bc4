// SPMD execution: one OS thread per logical rank.
//
// The simulator runs the same body on every logical rank and synchronises
// exclusively through barrier-with-completion rounds (CentralBarrier; see
// sim::SimTeam::reconcile). Each rank is an OS thread parked on the
// barrier between rounds; the threads are kept after a run and reused by
// the next. Functional concurrency only — all *timing* is
// virtual — so running 64 ranks on a 4-core host is deliberate and
// harmless, and host scheduling cannot leak into results: every
// completion is a pure function over the rank-indexed deposits.
#pragma once

#include <functional>

namespace dsm {

/// Run `body(rank)` on `nprocs` threads, rank 0 on the calling one, and
/// wait for them all. Then rethrow the exception that failed the team: the
/// lowest-ranked one that is not a BarrierPoisoned wake-up, or, when
/// every failure is one (the team was poisoned before it ran), the
/// lowest-ranked of those.
///
/// A rank that throws while others are parked in a barrier must poison
/// that barrier (sim::SimTeam::run does), or the team never finishes.
/// If a thread cannot be started, run_spmd throws (std::system_error)
/// before any rank runs.
void run_spmd(int nprocs, const std::function<void(int)>& body);

namespace detail {

/// Test seam: `hook` runs before each new rank thread is started, and an
/// exception it throws fails that start as the OS refusing a thread would.
/// Empty by default.
void set_thread_start_hook(std::function<void()> hook);

}  // namespace detail

/// The one SPMD engine. Kept only so benchmark reports can label their
/// provenance; nothing selects it.
enum class SpmdEngine {
  kThreads,
};

const char* engine_name(SpmdEngine e);

/// Provenance label for the engine every team runs on (always kThreads).
SpmdEngine default_spmd_engine();

}  // namespace dsm
