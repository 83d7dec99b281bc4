// Deterministic fault injection for the sort service.
//
// The robustness machinery (retry, shedding, error isolation) is only
// trustworthy if its failure paths are exercised, and only debuggable if
// a failing run can be replayed exactly. This harness injects faults at
// five named sites of the service pipeline, with firing decisions that
// are a pure function of (config seed, site, job id, attempt, salt) —
// independent of thread schedule, worker count, and wall clock — so a
// seeded fault matrix is part of the replay determinism contract: the
// same trace plus the same FaultConfig produces byte-identical results
// at any worker count.
//
// Sites and the layer that polls them:
//   kKeygen             sort driver, before input generation
//   kSortPhase          every kernel phase mark (salted by phase name,
//                       so different phases of one attempt fire
//                       independently)
//   kPlannerCalibration service batch loop, around Planner::try_plan
//   kQueueAdmission     SortService::submit, after validation
//   kSerialize          executor, before the result is recorded
//
// A fired site yields Status::fault_injected (retryable): the executor's
// backoff loop re-attempts it with the attempt number folded into the
// hash, so a job survives unless the fault rate is high enough to exhaust
// max_attempts — exactly the transient-failure model the retry policy is
// designed for. Admission faults are not retried (the client sees the
// rejection), modelling a flaky front end.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace dsm::svc {

enum class FaultSite {
  kKeygen,
  kSortPhase,
  kPlannerCalibration,
  kQueueAdmission,
  kSerialize,
  kCount,  // sentinel: number of sites
};

constexpr int kFaultSiteCount = static_cast<int>(FaultSite::kCount);

const char* fault_site_name(FaultSite s);

/// Bit for `site` in FaultConfig::sites.
constexpr std::uint32_t fault_site_bit(FaultSite s) {
  return std::uint32_t{1} << static_cast<int>(s);
}

constexpr std::uint32_t kAllFaultSites =
    (std::uint32_t{1} << kFaultSiteCount) - 1;

struct FaultConfig {
  /// 0 disables injection entirely (the production default). Any nonzero
  /// seed defines one reproducible fault universe.
  std::uint64_t seed = 0;
  /// Probability in [0, 1] that an armed site fires at each evaluation.
  double rate = 0.0;
  /// Bitmask of armed sites (fault_site_bit); default: all.
  std::uint32_t sites = kAllFaultSites;

  bool enabled() const { return seed != 0 && rate > 0.0; }
};

/// Stateless decision function over a FaultConfig; copies are cheap and
/// concurrent should_fire calls are safe (pure arithmetic).
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultConfig cfg);

  /// Deterministically decide whether `site` fires for (job, attempt).
  /// `salt` distinguishes multiple evaluations of the same site within
  /// one attempt (the sort-phase site salts with the phase name hash).
  bool should_fire(FaultSite site, std::uint64_t job_id, int attempt,
                   std::uint64_t salt = 0) const;

  /// The status a fired site reports:
  /// "injected fault at <site> (job <id>, attempt <k>)".
  static Status fire(FaultSite site, std::uint64_t job_id, int attempt);

  const FaultConfig& config() const { return cfg_; }

 private:
  FaultConfig cfg_;
};

}  // namespace dsm::svc
