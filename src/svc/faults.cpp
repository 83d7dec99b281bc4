#include "svc/faults.hpp"

#include "common/error.hpp"
#include "common/prng.hpp"

namespace dsm::svc {

const char* fault_site_name(FaultSite s) {
  switch (s) {
    case FaultSite::kKeygen: return "keygen";
    case FaultSite::kSortPhase: return "sort-phase";
    case FaultSite::kPlannerCalibration: return "planner-calibration";
    case FaultSite::kQueueAdmission: return "queue-admission";
    case FaultSite::kSerialize: return "serialize";
    case FaultSite::kCount: break;
  }
  return "?";
}

FaultInjector::FaultInjector(FaultConfig cfg) : cfg_(cfg) {
  DSM_REQUIRE(cfg_.rate >= 0.0 && cfg_.rate <= 1.0,
              "fault rate must be in [0, 1]");
}

bool FaultInjector::should_fire(FaultSite site, std::uint64_t job_id,
                                int attempt, std::uint64_t salt) const {
  if (!cfg_.enabled()) return false;
  if ((cfg_.sites & fault_site_bit(site)) == 0) return false;
  // One SplitMix64 draw keyed on the full evaluation identity. Seeding
  // (rather than hashing each field separately) keeps the decision a pure
  // function of the tuple with no per-injector state to synchronise.
  const std::uint64_t site_id = static_cast<std::uint64_t>(site) + 1;
  const std::uint64_t attempt_id = static_cast<std::uint64_t>(attempt);
  SplitMix64 rng(mix_seed(mix_seed(cfg_.seed, site_id),
                          mix_seed(mix_seed(job_id, attempt_id), salt)));
  // Compare the top 53 bits against the rate: exact for rate 0 and 1,
  // uniform to double precision in between.
  const double u =
      static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  return u < cfg_.rate;
}

Status FaultInjector::fire(FaultSite site, std::uint64_t job_id,
                           int attempt) {
  return Status::fault_injected(
      std::string("injected fault at ") + fault_site_name(site) + " (job " +
      std::to_string(job_id) + ", attempt " + std::to_string(attempt) + ")");
}

}  // namespace dsm::svc
