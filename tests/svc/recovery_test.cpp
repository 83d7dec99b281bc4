// Crash recovery end-to-end: fork a child service, kill it at precise
// durability sites via the crash hook, restart, and verify the recovery
// invariants — no admitted job lost, no terminal job re-executed,
// calibration byte-identical to an uncrashed reference, repeat-crashers
// quarantined, journal damage surfaced in Metrics rather than hidden.
#include "svc/recovery.hpp"

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/fsio.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace dsm::svc {
namespace {

constexpr std::uint64_t kAnySeq = ~std::uint64_t{0};

/// A new, empty directory under TempDir, removed with its contents when
/// the test ends. mkdtemp gives it a unique name, so copies of a test
/// built into the sanitizer tiers can run at once.
class FreshDir {
 public:
  explicit FreshDir(const std::string& name)
      : path_(::testing::TempDir() + "/" + name + ".XXXXXX") {
    if (::mkdtemp(path_.data()) == nullptr) {
      throw Error("mkdtemp " + path_ + ": " + std::strerror(errno));
    }
  }
  ~FreshDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  FreshDir(const FreshDir&) = delete;
  FreshDir& operator=(const FreshDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ServiceConfig durable_config(const std::string& dir) {
  ServiceConfig cfg;
  cfg.queue_capacity = 32;
  cfg.workers = 1;  // durable mode requires the single pipeline
  cfg.max_batch = 4;
  cfg.audit_every = 3;
  cfg.durability.dir = dir;
  cfg.durability.snapshot_every_batches = 1;
  cfg.durability.keep_all_segments = true;  // tests audit full history
  return cfg;
}

std::vector<JobSpec> crash_trace(std::size_t count) {
  LoadMix mix;
  mix.sizes = {1u << 12, 1u << 13};
  mix.procs = {4, 8};
  mix.dists = {keys::Dist::kGauss, keys::Dist::kRandom, keys::Dist::kBucket};
  return make_trace(99, count, mix);
}

struct CrashSpec {
  std::string site;                // substring of the hook site to match
  std::uint64_t seq = kAnySeq;     // restrict to one job's records
  int fire_on = 1;                 // die on the Nth matching fire
};

/// Run one service incarnation in a forked child: recover (construction),
/// submit the whole trace (duplicates rejected idempotently), drain.
/// Returns the child's exit code: 0 = clean, 42 = died at the crash site.
int run_incarnation(const std::string& dir, const std::vector<JobSpec>& trace,
                    const CrashSpec* crash) {
  const pid_t pid = fork();
  if (pid == 0) {
    int fires = 0;
    try {
      ServiceConfig cfg = durable_config(dir);
      if (crash != nullptr) {
        cfg.durability.crash_hook = [&fires, crash](const char* site,
                                                    std::uint64_t seq) {
          if (crash->seq != kAnySeq && seq != crash->seq) return;
          if (std::strstr(site, crash->site.c_str()) == nullptr) return;
          if (++fires >= crash->fire_on) ::_exit(42);
        };
      }
      SortService svc(cfg);
      for (const JobSpec& j : trace) svc.submit(j);
      svc.start();
      svc.drain();
      ::_exit(0);
    } catch (...) {
      ::_exit(99);
    }
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Terminal records per seq across every retained segment.
std::map<std::uint64_t, std::vector<JournalRecord>> terminals_by_seq(
    const std::string& dir) {
  std::map<std::uint64_t, std::vector<JournalRecord>> out;
  for (const std::string& seg : list_segments(dir)) {
    for (JournalRecord& r : read_segment(seg).records) {
      if (r.type == RecordType::kTerminal) out[r.seq].push_back(std::move(r));
    }
  }
  return out;
}

/// The uncrashed reference: same trace through a plain (non-durable)
/// replay. Calibration after recovery must match this byte-for-byte.
std::string reference_calibration(const std::vector<JobSpec>& trace) {
  ServiceConfig cfg = durable_config("");
  cfg.durability = DurabilityConfig{};
  SortService ref(cfg);
  ref.replay(trace);
  return ref.planner().calibration_json();
}

TEST(DurableService, NoCrashMatchesNonDurableReference) {
  const FreshDir dir("dur_nocrash");
  const std::vector<JobSpec> trace = crash_trace(8);

  SortService svc(durable_config(dir.path()));
  EXPECT_FALSE(svc.recovery_report().performed);  // fresh directory
  for (const JobSpec& j : trace) {
    EXPECT_EQ(svc.submit(j), Admission::kAccepted);
  }
  svc.start();
  svc.drain();

  const std::vector<JobResult> got = svc.take_results();
  ServiceConfig ref_cfg = durable_config("");
  ref_cfg.durability = DurabilityConfig{};
  SortService ref(ref_cfg);
  const std::vector<JobResult> want = ref.replay(trace);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Deterministic JSON (host fields excluded) is byte-identical:
    // journaling must not perturb planning, auditing, or measurement.
    EXPECT_EQ(got[i].to_json(), want[i].to_json()) << "job " << i;
  }
  EXPECT_EQ(svc.planner().calibration_json(), ref.planner().calibration_json());
  EXPECT_GE(svc.metrics().durability().snapshots, 1u);
}

TEST(DurableService, RestartAfterCleanDrainReplaysWithoutRerunning) {
  const FreshDir dir("dur_restart");
  const std::vector<JobSpec> trace = crash_trace(6);
  std::string calibration;
  {
    SortService svc(durable_config(dir.path()));
    for (const JobSpec& j : trace) svc.submit(j);
    svc.start();
    svc.drain();
    calibration = svc.planner().calibration_json();
  }
  SortService again(durable_config(dir.path()));
  const RecoveryReport& rep = again.recovery_report();
  EXPECT_TRUE(rep.performed);
  EXPECT_TRUE(rep.snapshot_loaded);
  EXPECT_EQ(rep.requeued, 0u);
  EXPECT_EQ(rep.quarantined, 0u);
  // Terminals were all snapshot-covered: nothing re-runs, state restores.
  EXPECT_EQ(again.planner().calibration_json(), calibration);
  EXPECT_EQ(again.metrics().counters().completed, trace.size());
  EXPECT_EQ(again.metrics().counters().accepted, trace.size());
  EXPECT_EQ(again.metrics().durability().recoveries, 1u);
  // The idempotence filter survived the restart.
  Status why;
  EXPECT_EQ(again.submit(trace[0], &why), Admission::kRejectedDuplicate);
  EXPECT_EQ(why.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(again.metrics().counters().rejected_duplicate, 1u);
  again.drain();
  EXPECT_TRUE(again.take_results().empty());  // nothing was re-executed
}

// The heart of the tier: die at every journal/snapshot/execution site,
// restart, and demand the invariants hold regardless of where the
// process was killed.
TEST(CrashMatrix, EveryCrashSiteRecoversToReferenceState) {
  const std::vector<JobSpec> trace = crash_trace(8);
  const std::string reference = reference_calibration(trace);
  const struct {
    const char* site;
    int fire_on;
  } kSites[] = {
      {"journal.admit.before-fsync", 3},
      {"journal.admit.after-fsync", 5},
      {"journal.planned.before-fsync", 2},
      {"journal.planned.after-fsync", 6},
      {"journal.attempt-start.before-fsync", 3},
      {"journal.attempt-start.after-fsync", 7},
      {"journal.mark.before-fsync", 9},
      {"journal.mark.after-fsync", 17},
      {"journal.terminal.before-fsync", 2},
      {"journal.terminal.after-fsync", 5},
      {"snapshot.before-rename", 1},
      {"snapshot.after-rename", 1},
      {"exec.", 4},
  };
  for (const auto& s : kSites) {
    SCOPED_TRACE(s.site);
    const FreshDir dir(std::string("dur_matrix_") + s.site);
    CrashSpec crash{s.site, kAnySeq, s.fire_on};
    ASSERT_EQ(run_incarnation(dir.path(), trace, &crash), 42)
        << "site never fired; matrix entry is dead";
    ASSERT_EQ(run_incarnation(dir.path(), trace, nullptr), 0);

    // Exactly one terminal per admitted seq: nothing lost, nothing done
    // twice (a re-executed completed job would journal a second one).
    const auto terms = terminals_by_seq(dir.path());
    ASSERT_EQ(terms.size(), trace.size());
    for (const auto& [seq, records] : terms) {
      EXPECT_EQ(records.size(), 1u) << "seq " << seq;
      EXPECT_EQ(records[0].result.status, JobStatus::kOk) << "seq " << seq;
    }

    // A post-recovery service restores calibration byte-identical to the
    // uncrashed reference run.
    SortService verify(durable_config(dir.path()));
    EXPECT_EQ(verify.planner().calibration_json(), reference);
    EXPECT_EQ(verify.metrics().counters().completed, trace.size());
    EXPECT_EQ(verify.metrics().counters().accepted, trace.size());
    EXPECT_EQ(verify.recovery_report().requeued, 0u);
    verify.drain();
  }
}

TEST(CrashMatrix, RepeatCrasherIsQuarantinedOthersComplete) {
  const std::vector<JobSpec> trace = crash_trace(6);
  const FreshDir dir("dur_quarantine");
  // The process dies every time job seq 2 starts executing.
  CrashSpec crash{"exec.", 2, 1};
  ASSERT_EQ(run_incarnation(dir.path(), trace, &crash), 42);  // first crash
  ASSERT_EQ(run_incarnation(dir.path(), trace, &crash), 42);  // same site again
  // Third incarnation quarantines seq 2 before execution: the crash spec
  // never fires and everything else completes.
  ASSERT_EQ(run_incarnation(dir.path(), trace, &crash), 0);

  const auto terms = terminals_by_seq(dir.path());
  ASSERT_EQ(terms.size(), trace.size());
  for (const auto& [seq, records] : terms) {
    ASSERT_EQ(records.size(), 1u) << "seq " << seq;
    if (seq == 2) {
      EXPECT_EQ(records[0].result.status, JobStatus::kFailed);
      EXPECT_EQ(records[0].result.final_status.code(),
                StatusCode::kQuarantined);
    } else {
      EXPECT_EQ(records[0].result.status, JobStatus::kOk) << "seq " << seq;
    }
  }

  // The quarantine file names the poison job and its crash history.
  Result<std::string> qfile = try_read_file(quarantine_path(dir.path()));
  ASSERT_TRUE(qfile.ok());
  EXPECT_NE(qfile->find("\"crash_count\": 2"), std::string::npos) << *qfile;
  EXPECT_NE(qfile->find("execute:"), std::string::npos) << *qfile;

  SortService verify(durable_config(dir.path()));
  EXPECT_EQ(verify.metrics().durability().quarantined, 1u);
  EXPECT_EQ(verify.metrics().counters().completed, trace.size() - 1);
  EXPECT_EQ(verify.metrics().counters().failed, 1u);
  // The quarantined id stays known: resubmission is rejected, not re-run.
  EXPECT_EQ(verify.submit(trace[2]), Admission::kRejectedDuplicate);
  verify.drain();
}

TEST(DurableService, TornJournalTailIsToleratedAndSurfaced) {
  const FreshDir dir("dur_torn");
  const std::vector<JobSpec> trace = crash_trace(4);
  {
    SortService svc(durable_config(dir.path()));
    for (const JobSpec& j : trace) svc.submit(j);
    svc.start();
    svc.drain();
  }
  // Simulate a crash mid-append: a frame header promising more payload
  // than the file holds, at the tail of the newest segment.
  const std::vector<std::string> segs = list_segments(dir.path());
  ASSERT_FALSE(segs.empty());
  {
    std::ofstream out(segs.back(), std::ios::app | std::ios::binary);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04,
                         'p', 'a', 'r', 't'};
    out.write(torn, sizeof torn);
  }
  SortService svc(durable_config(dir.path()));
  EXPECT_EQ(svc.recovery_report().torn_tails, 1u);
  EXPECT_EQ(svc.recovery_report().corrupt_records, 0u);
  EXPECT_EQ(svc.metrics().durability().journal_torn_tail, 1u);
  // State before the tear is intact and the service keeps serving.
  EXPECT_EQ(svc.metrics().counters().completed, trace.size());
  JobSpec extra = trace[0];
  extra.id = 424242;
  EXPECT_EQ(svc.submit(extra), Admission::kAccepted);
  svc.drain();
  EXPECT_EQ(svc.take_results().size(), 1u);
}

TEST(DurableService, BitFlippedRecordIsCorruptAndSurfaced) {
  const FreshDir dir("dur_flip");
  const std::vector<JobSpec> trace = crash_trace(4);
  {
    SortService svc(durable_config(dir.path()));
    for (const JobSpec& j : trace) svc.submit(j);
    svc.start();
    svc.drain();
  }
  // Append a fully-framed record whose CRC does not match its payload:
  // recovery must stop at the damage and report it, not trust framing
  // beyond it.
  const std::vector<std::string> segs = list_segments(dir.path());
  ASSERT_FALSE(segs.empty());
  {
    const std::string payload = "999 mark 0 5:phase";
    std::uint32_t bad_crc =
        crc32(static_cast<const void*>(payload.data()), payload.size()) ^ 1u;
    std::string frame;
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    for (int b = 0; b < 4; ++b) {
      frame += static_cast<char>((len >> (8 * b)) & 0xff);
    }
    for (int b = 0; b < 4; ++b) {
      frame += static_cast<char>((bad_crc >> (8 * b)) & 0xff);
    }
    frame += payload;
    std::ofstream out(segs.back(), std::ios::app | std::ios::binary);
    out << frame;
  }
  SortService svc(durable_config(dir.path()));
  EXPECT_EQ(svc.recovery_report().corrupt_records, 1u);
  EXPECT_EQ(svc.metrics().durability().journal_corrupt, 1u);
  // The valid prefix (everything the snapshot covers) still restores.
  EXPECT_EQ(svc.metrics().counters().completed, trace.size());
  svc.drain();
}

TEST(DurableService, ReplayIsRefusedInDurableMode) {
  const FreshDir dir("dur_noreplay");
  SortService svc(durable_config(dir.path()));
  EXPECT_THROW(svc.replay(crash_trace(2)), Error);
  svc.drain();
}

TEST(DurableService, RequiresSingleWorker) {
  const FreshDir dir("dur_workers");
  ServiceConfig cfg = durable_config(dir.path());
  cfg.workers = 2;
  EXPECT_THROW(SortService{cfg}, Error);
}

}  // namespace
}  // namespace dsm::svc
