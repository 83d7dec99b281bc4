#include "svc/remote.hpp"

#include <cstring>

#include "sort/sort_api.hpp"

namespace dsm::svc {
namespace {

/// FNV-1a over a phase name: the sort-phase site's salt, so different
/// phases of one attempt fire independently.
std::uint64_t fault_salt(const char* name) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

}  // namespace

RemoteOutcome execute_attempt(const RemoteAttempt& a,
                              const FaultInjector& injector,
                              const RemoteExecutor::MarkFn& on_mark) {
  RemoteOutcome out;
  out.ran = true;
  sort::SortSpec spec =
      sort_spec_for(a.job, a.plan.algo, a.plan.model, a.plan.radix_bits);
  if (a.audit) {
    // Audit runs measure the runner-up plan: no trace, no hooks, no
    // faults, no deadline.
    spec.trace_json_path.clear();
  } else {
    const double deadline_ns = static_cast<double>(a.job.deadline_us) * 1e3;
    const bool abortable =
        a.job.deadline_us > 0 && a.job.priority < kCriticalPriority;
    spec.hooks.on_site = [&a, &injector, &on_mark, &out, deadline_ns,
                          abortable](const char* site, double virtual_ns) {
      if (on_mark) on_mark(site, virtual_ns);
      const bool keygen = std::strcmp(site, "keygen") == 0;
      const FaultSite fsite =
          keygen ? FaultSite::kKeygen : FaultSite::kSortPhase;
      const std::uint64_t salt = keygen ? 0 : fault_salt(site);
      if (injector.should_fire(fsite, a.job.id, a.attempt, salt)) {
        out.fired_site = static_cast<int>(fsite);
        throw StatusError(FaultInjector::fire(fsite, a.job.id, a.attempt));
      }
      // Cooperative straggler abort: virtual time already past the
      // deadline at a phase boundary means the job cannot finish in
      // budget; unwind now instead of finishing late.
      if (abortable && virtual_ns > deadline_ns) {
        throw StatusError(Status::deadline_exceeded(
            std::string("virtual deadline exceeded at '") + site + "': " +
            us_text(virtual_ns) + " > " + us_text(deadline_ns)));
      }
    };
  }

  const Result<sort::SortResult> r = sort::try_run_sort(spec);
  if (!r.ok()) {
    out.failure = r.status();
    return out;
  }
  out.ok = true;
  out.measured_ns = r->elapsed_ns;
  out.passes = r->passes;
  out.verified = r->verified;
  out.input_checksum = r->input_checksum;
  out.run_hash = r->run_hash;
  return out;
}

}  // namespace dsm::svc
