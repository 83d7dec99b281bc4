#include "svc/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <array>
#include <bit>
#include <sstream>
#include <type_traits>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace dsm::svc {
namespace {

using Kind = Metrics::Kind;
using Row = Metrics::Row;
using Scope = Metrics::Scope;
using Section = Metrics::Section;
using Series = Metrics::Series;

// JSON key of each Section; nullptr puts the section's rows at the top
// level.
constexpr const char* kSectionKeys[] = {
    "counters", nullptr,    "plan_audit", "accuracy", nullptr,
    "durability", nullptr,  nullptr,      nullptr,    "health",
    "workers",  nullptr,    nullptr,
};
static_assert(std::size(kSectionKeys) ==
              static_cast<std::size_t>(Section::kDisk) + 1);

constexpr bool deterministic_rows_lead() {
  bool deterministic = true;
  for (const Row& r : Metrics::kRows) {
    if (r.scope != Scope::kDeterministic) {
      deterministic = false;
    } else if (!deterministic) {
      return false;
    }
    if (r.kind == Kind::kSamples && r.scope != Scope::kDeterministic) {
      return false;
    }
  }
  return true;
}
static_assert(deterministic_rows_lead(),
              "deterministic rows (and every kSamples row) lead the table: "
              "they are the snapshot payload and the cells prefix");

static_assert(static_cast<int>(Admission::kAccepted) == 0 &&
                  static_cast<int>(Series::kRejectedDuplicate) -
                          static_cast<int>(Series::kAccepted) ==
                      static_cast<int>(Admission::kRejectedDuplicate),
              "kAccepted..kRejectedDuplicate follow Admission's order");

double mean_of(const std::vector<double>& v, std::size_t begin,
               std::size_t end) {
  if (end <= begin) return 0;
  double sum = 0;
  for (std::size_t i = begin; i < end; ++i) sum += v[i];
  return sum / static_cast<double>(end - begin);
}

std::size_t log2_bucket(double us) {
  const auto whole = static_cast<std::uint64_t>(std::max(0.0, std::floor(us)));
  const int bucket = whole == 0 ? 0 : bit_width_u64(whole) - 1;
  return static_cast<std::size_t>(
      std::min(bucket, Metrics::kLatencyBuckets - 1));
}

}  // namespace

template <class View, Metrics::Series kFirst, Metrics::Series kLast>
View Metrics::view() const {
  constexpr auto first = static_cast<std::size_t>(kFirst);
  constexpr auto last = static_cast<std::size_t>(kLast);
  static_assert(std::is_trivially_copyable_v<View> &&
                sizeof(View) == (last - first + 1) * sizeof(std::uint64_t));
  static_assert([] {
    for (std::size_t i = first; i <= last; ++i) {
      if (kRows[i].cells != 1) return false;
    }
    return true;
  }(), "a typed view covers a contiguous run of one-cell rows");
  std::array<std::uint64_t, last - first + 1> run;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::copy_n(cells_ + offset(kFirst), run.size(), run.begin());
  }
  return std::bit_cast<View>(run);
}

void Metrics::add(Series s, std::uint64_t n, std::size_t i) {
  DSM_DCHECK(i < static_cast<std::size_t>(row(s).cells), "metric cell");
  const std::lock_guard<std::mutex> lock(mu_);
  cell(s, i) += n;
}

void Metrics::raise(Series s, std::uint64_t v) {
  const std::lock_guard<std::mutex> lock(mu_);
  cell(s) = std::max(cell(s), v);
}

void Metrics::observe(Series s, double us) {
  DSM_DCHECK(row(s).kind == Kind::kLog2Histogram, "log2 histogram");
  const std::lock_guard<std::mutex> lock(mu_);
  ++cell(s, log2_bucket(us));
}

void Metrics::on_admission(Admission a) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cell(Series::kSubmitted);
  ++cell(static_cast<Series>(static_cast<int>(Series::kAccepted) +
                             static_cast<int>(a)));
}

void Metrics::on_recovery(std::uint64_t replayed_terminal,
                          std::uint64_t requeued, std::uint64_t quarantined) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cell(Series::kRecoveries);
  cell(Series::kReplayedTerminal) += replayed_terminal;
  cell(Series::kRequeued) += requeued;
  cell(Series::kQuarantined) += quarantined;
}

void Metrics::on_complete(const JobResult& r) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Retry accounting applies to every fate: a job may retry twice and
  // then be aborted by its deadline, or exhaust its attempts and fail.
  const std::size_t prior_failures = r.attempts.size();
  cell(Series::kRetryAttempts) += prior_failures;
  ++cell(Series::kRetryHistogram,
         std::min(prior_failures, std::size_t{kRetryBuckets - 1}));
  if (r.status == JobStatus::kFailed) {
    ++cell(Series::kFailed);
    return;
  }
  if (r.status == JobStatus::kShed) {
    ++cell(Series::kShed);
    return;
  }
  // kOk and kDeadlineMiss both ran to completion with a measured time.
  ++cell(Series::kCompleted);
  if (r.status == JobStatus::kDeadlineMiss) ++cell(Series::kDeadlineMiss);
  if (r.status == JobStatus::kOk && prior_failures > 0) {
    ++cell(Series::kRetrySuccesses);
  }
  if (r.measured_ns > 0) {  // mid-run deadline aborts have no measurement
    ++cell(Series::kLatencyVirtualUs, log2_bucket(r.measured_ns / 1e3));
  }
  if (r.audited) {
    ++cell(Series::kAudited);
    if (r.plan_hit) ++cell(Series::kPlanHits);
  }
  if (r.plan.predicted_raw_ns > 0 && r.measured_ns > 0) {
    samples(Series::kRelErrRaw).push_back(
        std::abs(r.plan.predicted_raw_ns - r.measured_ns) / r.measured_ns);
    samples(Series::kRelErrCal).push_back(
        std::abs(r.plan.predicted_ns - r.measured_ns) / r.measured_ns);
  }
}

void Metrics::on_worker_gauge(int free, int working, int draining, int dead,
                              int quarantined) {
  const auto gauge = [](int v) {
    return static_cast<std::uint64_t>(std::max(0, v));
  };
  const std::lock_guard<std::mutex> lock(mu_);
  cell(Series::kGaugeFree) = gauge(free);
  cell(Series::kGaugeWorking) = gauge(working);
  cell(Series::kGaugeDraining) = gauge(draining);
  cell(Series::kGaugeDead) = gauge(dead);
  cell(Series::kGaugeQuarantined) = gauge(quarantined);
  cell(Series::kPeakAlive) =
      std::max(cell(Series::kPeakAlive),
               cell(Series::kGaugeFree) + cell(Series::kGaugeWorking));
}

Metrics::Counters Metrics::counters() const {
  return view<Counters, Series::kSubmitted, Series::kPlanHits>();
}

Metrics::Durability Metrics::durability() const {
  return view<Durability, Series::kJournalTornTail, Series::kSnapshots>();
}

Metrics::Cluster Metrics::cluster() const {
  return view<Cluster, Series::kDispatches, Series::kPeakAlive>();
}

Metrics::DiskHealth Metrics::disk_health() const {
  return view<DiskHealth, Series::kDegradedAppends,
              Series::kSnapshotFailures>();
}

Metrics::Accuracy Metrics::accuracy() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return accuracy_locked();
}

Metrics::Accuracy Metrics::accuracy_locked() const {
  const std::vector<double>& raw = samples_[offset(Series::kRelErrRaw)];
  const std::vector<double>& cal = samples_[offset(Series::kRelErrCal)];
  Accuracy a;
  a.count = cal.size();
  a.mean_rel_err_raw = mean_of(raw, 0, raw.size());
  a.mean_rel_err_cal = mean_of(cal, 0, cal.size());
  const std::size_t half = cal.size() / 2;
  a.first_half_cal = mean_of(cal, 0, half);
  a.second_half_cal = mean_of(cal, half, cal.size());
  return a;
}

std::vector<std::uint64_t> Metrics::values(Series s) const {
  DSM_REQUIRE(row(s).kind != Kind::kSamples, "a sample series has no cells");
  const std::uint64_t* first = cells_ + offset(s);
  const std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::uint64_t>(first, first + row(s).cells);
}

Metrics::State Metrics::export_state() const {
  const std::lock_guard<std::mutex> lock(mu_);
  State s;
  s.cells.assign(cells_, cells_ + kLayout.deterministic_cells);
  s.samples.assign(std::begin(samples_), std::end(samples_));
  return s;
}

void Metrics::import_state(const State& s) {
  DSM_REQUIRE(s.cells.size() == kLayout.deterministic_cells &&
                  s.samples.size() == kLayout.samples,
              "metrics snapshot shape mismatch");
  const std::lock_guard<std::mutex> lock(mu_);
  std::copy(s.cells.begin(), s.cells.end(), cells_);
  std::copy(s.samples.begin(), s.samples.end(), samples_);
}

std::string Metrics::json(Scope scope) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << '{';
  const char* group_sep = "";
  for (std::size_t sec = 0; sec < std::size(kSectionKeys); ++sec) {
    std::ostringstream group;
    const char* sep = "";
    bool any = false;
    for (std::size_t i = 0; i < kSeriesCount; ++i) {
      const Row& r = kRows[i];
      if (r.scope != scope || static_cast<std::size_t>(r.section) != sec) {
        continue;
      }
      any = true;
      if (r.kind == Kind::kSamples) continue;  // summarised below
      const std::uint64_t* c = cells_ + kLayout.offset[i];
      group << sep << '"' << r.name << "\": ";
      sep = ", ";
      if (r.cells == 1) {
        group << c[0];
      } else if (r.kind == Kind::kCounter) {  // one cell per FaultSite
        group << '{';
        for (int k = 0; k < r.cells; ++k) {
          group << (k ? ", " : "") << '"'
                << fault_site_name(static_cast<FaultSite>(k))
                << "\": " << c[k];
        }
        group << '}';
      } else {
        group << '[';
        for (int k = 0; k < r.cells; ++k) group << (k ? ", " : "") << c[k];
        group << ']';
      }
    }
    if (!any) continue;
    const auto section = static_cast<Section>(sec);
    if (section == Section::kPlanAudit) {
      const std::uint64_t audited = cells_[offset(Series::kAudited)];
      const std::uint64_t hits = cells_[offset(Series::kPlanHits)];
      group << ", \"hit_rate\": "
            << fmt_fixed(audited > 0 ? static_cast<double>(hits) /
                                           static_cast<double>(audited)
                                     : 0.0,
                         4);
    } else if (section == Section::kAccuracy) {
      const Accuracy a = accuracy_locked();
      group << "\"count\": " << a.count
            << ", \"mean_rel_err_raw\": " << fmt_fixed(a.mean_rel_err_raw, 4)
            << ", \"mean_rel_err_calibrated\": "
            << fmt_fixed(a.mean_rel_err_cal, 4)
            << ", \"first_half_calibrated\": "
            << fmt_fixed(a.first_half_cal, 4)
            << ", \"second_half_calibrated\": "
            << fmt_fixed(a.second_half_cal, 4);
    }
    os << group_sep;
    group_sep = ",\n ";
    if (kSectionKeys[sec] != nullptr) {
      os << '"' << kSectionKeys[sec] << "\": {" << group.str() << '}';
    } else {
      os << group.str();
    }
  }
  os << '}';
  return os.str();
}

std::string Metrics::histogram_csv(Series s) const {
  DSM_REQUIRE(row(s).kind == Kind::kLog2Histogram, "not a log2 histogram");
  const std::vector<std::uint64_t> hist = values(s);
  std::ostringstream os;
  os << "bucket_lo_us,bucket_hi_us,count\n";
  for (std::size_t i = 0; i < hist.size(); ++i) {
    os << (i == 0 ? 0 : std::uint64_t{1} << i) << ',';
    if (i + 1 == hist.size()) {
      os << "inf";
    } else {
      os << (std::uint64_t{1} << (i + 1));
    }
    os << ',' << hist[i] << '\n';
  }
  return os.str();
}

}  // namespace dsm::svc
