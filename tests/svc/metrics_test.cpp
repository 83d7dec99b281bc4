// Metrics registry: counters, the log2 virtual-latency histogram, plan
// audits, and the before/after calibration-accuracy split — plus the
// determinism-relevant JSON rendering.
#include "svc/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "svc/snapshot.hpp"

namespace dsm::svc {
namespace {

using Series = Metrics::Series;

JobResult ok_result(double measured_ns) {
  JobResult r;
  r.measured_ns = measured_ns;
  r.plan.predicted_raw_ns = measured_ns;  // perfect prediction by default
  r.plan.predicted_ns = measured_ns;
  return r;
}

// A fixed script that fires every event at least once, each series a
// distinct number of times, so a swapped field or bucket shows in the
// exports below.
void fire_every_event(Metrics& m) {
  for (int i = 0; i < 9; ++i) m.on_admission(Admission::kAccepted);
  m.on_admission(Admission::kRejectedFull);
  m.on_admission(Admission::kRejectedFull);
  m.on_admission(Admission::kRejectedClosed);
  for (int i = 0; i < 3; ++i) m.on_admission(Admission::kRejectedInvalid);
  for (int i = 0; i < 4; ++i) m.on_admission(Admission::kRejectedFault);
  for (int i = 0; i < 5; ++i) m.on_admission(Admission::kRejectedDuplicate);

  JobResult hit = ok_result(3e3);
  hit.audited = true;
  hit.plan_hit = true;
  hit.plan.predicted_raw_ns = 4500;
  hit.plan.predicted_ns = 3300;
  m.on_complete(hit);
  JobResult miss = ok_result(1e6);
  miss.audited = true;
  miss.plan.predicted_raw_ns = 7e5;
  m.on_complete(miss);
  JobResult retried = ok_result(5e4);
  retried.attempts.resize(2);
  retried.plan.predicted_ns = 6e4;
  m.on_complete(retried);
  JobResult late = ok_result(2e9);
  late.status = JobStatus::kDeadlineMiss;
  m.on_complete(late);
  JobResult aborted;  // mid-run deadline abort: no measurement
  aborted.status = JobStatus::kDeadlineMiss;
  aborted.attempts.resize(9);
  m.on_complete(aborted);
  JobResult failed;
  failed.status = JobStatus::kFailed;
  failed.attempts.resize(3);
  m.on_complete(failed);
  JobResult shed;
  shed.status = JobStatus::kShed;
  for (int i = 0; i < 6; ++i) m.on_complete(shed);

  m.add(Series::kFaultsBySite, 1,
        static_cast<std::size_t>(FaultSite::kKeygen));
  m.add(Series::kFaultsBySite, 1,
        static_cast<std::size_t>(FaultSite::kSerialize));
  m.add(Series::kFaultsBySite, 1,
        static_cast<std::size_t>(FaultSite::kSerialize));
  m.raise(Series::kQueueDepthHighWater, 7);
  m.raise(Series::kQueueDepthHighWater, 2);

  for (int i = 0; i < 6; ++i) m.add(Series::kDispatches);
  m.add(Series::kAcks);
  m.observe(Series::kDispatchAckHostUs, 0.4);
  m.add(Series::kAcks);
  m.observe(Series::kDispatchAckHostUs, 1500.0);
  m.add(Series::kAcks);
  m.observe(Series::kDispatchAckHostUs, 1e12);
  m.add(Series::kRedispatches);
  m.add(Series::kRedispatches);
  for (int i = 0; i < 4; ++i) m.add(Series::kWorkersSpawned);
  m.add(Series::kWorkersSpawned);
  m.add(Series::kWorkersRespawned);
  m.add(Series::kWorkerDeaths);
  m.add(Series::kWorkersRetired);
  m.add(Series::kWorkersRetired);
  m.add(Series::kWorkersRetired);
  m.on_worker_gauge(3, 2, 1, 1, 1);
  m.on_worker_gauge(1, 1, 0, 2, 0);
  for (int i = 0; i < 11; ++i) m.add(Series::kHeartbeats);
  for (int i = 0; i < 4; ++i) m.add(Series::kHedgesIssued);
  m.add(Series::kHedgesWon);
  m.add(Series::kHedgeLosers);
  m.add(Series::kHedgeLosers);
  for (int i = 0; i < 3; ++i) m.add(Series::kIntegrityViolations);
  m.add(Series::kWorkersQuarantined);

  m.add(Series::kJournalTornTail);
  m.add(Series::kJournalCorrupt, 2);
  m.on_recovery(3, 4, 1);
  m.add(Series::kSnapshots);
  m.add(Series::kSnapshots);
  m.add(Series::kDegradedAppends, 6);
  m.add(Series::kNonDurableJobs, 5);
  m.add(Series::kHeals);
  m.add(Series::kSnapshotFailures);
  m.add(Series::kSnapshotFailures);
}

TEST(Metrics, EveryExportAndTheSnapshotPayloadArePinnedByteForByte) {
  // Snapshots already on disk decode positionally, and replay goldens
  // compare these exports byte for byte: a reordered field, renamed key
  // or changed number format must fail here.
  Metrics m;
  fire_every_event(m);
  EXPECT_EQ(m.json(Metrics::Scope::kDeterministic),
      "{\"counters\": {\"submitted\": 24, \"accepted\": 9,"
      " \"rejected_full\": 2, \"rejected_closed\": 1, \"rejected_invalid\": 3,"
      " \"rejected_fault\": 4, \"rejected_duplicate\": 5, \"completed\": 5,"
      " \"failed\": 1, \"shed\": 6, \"deadline_miss\": 2,"
      " \"retry_attempts\": 14, \"retry_successes\": 1},\n"
      " \"queue_depth_high_water\": 7,\n"
      " \"plan_audit\": {\"audited\": 2, \"plan_hits\": 1,"
      " \"hit_rate\": 0.5000},\n"
      " \"accuracy\": {\"count\": 4, \"mean_rel_err_raw\": 0.2000,"
      " \"mean_rel_err_calibrated\": 0.0750,"
      " \"first_half_calibrated\": 0.0500,"
      " \"second_half_calibrated\": 0.1000},\n"
      " \"faults_by_site\": {\"keygen\": 1, \"sort-phase\": 0,"
      " \"planner-calibration\": 0, \"queue-admission\": 0,"
      " \"serialize\": 2},\n"
      " \"durability\": {\"journal_torn_tail\": 1, \"journal_corrupt\": 2,"
      " \"recoveries\": 1, \"replayed_terminal\": 3, \"requeued\": 4,"
      " \"quarantined\": 1, \"snapshots\": 2},\n"
      " \"retry_histogram\": [9, 0, 1, 1, 0, 0, 0, 1],\n"
      " \"latency_virtual_us_log2_buckets\": [0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0,"
      " 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]}");
  EXPECT_EQ(m.json(Metrics::Scope::kHost),
      "{\"dispatches\": 6, \"acks\": 3, \"redispatches\": 2,"
      " \"worker_deaths\": 1, \"workers_spawned\": 5,"
      " \"workers_respawned\": 1, \"workers_retired\": 3,\n"
      " \"health\": {\"heartbeats\": 11, \"hedges_issued\": 4,"
      " \"hedges_won\": 1, \"hedge_losers\": 2, \"integrity_violations\": 3,"
      " \"workers_quarantined\": 1},\n"
      " \"workers\": {\"free\": 1, \"working\": 1, \"draining\": 0,"
      " \"dead\": 2, \"quarantined\": 0, \"peak_alive\": 5},\n"
      " \"dispatch_ack_host_us_log2_buckets\": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0,"
      " 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]}");
  EXPECT_EQ(m.json(Metrics::Scope::kEnvironment),
      "{\"degraded_appends\": 6, \"non_durable_jobs\": 5, \"heals\": 1,"
      " \"snapshot_failures\": 2}");
  EXPECT_EQ(m.histogram_csv(Series::kLatencyVirtualUs),
      "bucket_lo_us,bucket_hi_us,count\n"
      "0,2,0\n"
      "2,4,1\n"
      "4,8,0\n"
      "8,16,0\n"
      "16,32,0\n"
      "32,64,1\n"
      "64,128,0\n"
      "128,256,0\n"
      "256,512,0\n"
      "512,1024,1\n"
      "1024,2048,0\n"
      "2048,4096,0\n"
      "4096,8192,0\n"
      "8192,16384,0\n"
      "16384,32768,0\n"
      "32768,65536,0\n"
      "65536,131072,0\n"
      "131072,262144,0\n"
      "262144,524288,0\n"
      "524288,1048576,0\n"
      "1048576,2097152,1\n"
      "2097152,4194304,0\n"
      "4194304,8388608,0\n"
      "8388608,inf,0\n");
  SnapshotData s;
  s.metrics = m.export_state();
  EXPECT_EQ(encode_snapshot(s),
      "dsmsnap1 0 0 cells2 0 24 9 2 1 3 4 5 5 1 6 2 14 1 2 1 1 2 1 3 4 1 2 7 "
      "24 0 1 0 0 0 1 0 0 0 1 0 0 0 0 0 0 0 0 0 0 1 0 0 0 8 9 0 1 1 0 0 0 1 5 "
      "1 0 0 0 2 4 0x1p-1 0x1.3333333333333p-2 0x0p+0 0x0p+0 4 "
      "0x1.999999999999ap-4 0x0p+0 0x1.999999999999ap-3 0x0p+0 0 0");
}

TEST(Metrics, AdmissionCountersSplitByReason) {
  Metrics m;
  m.on_admission(Admission::kAccepted);
  m.on_admission(Admission::kAccepted);
  m.on_admission(Admission::kRejectedFull);
  m.on_admission(Admission::kRejectedClosed);
  m.on_admission(Admission::kRejectedInvalid);
  const Metrics::Counters c = m.counters();
  EXPECT_EQ(c.submitted, 5u);
  EXPECT_EQ(c.accepted, 2u);
  EXPECT_EQ(c.rejected_full, 1u);
  EXPECT_EQ(c.rejected_closed, 1u);
  EXPECT_EQ(c.rejected_invalid, 1u);
}

TEST(Metrics, LatencyHistogramUsesLog2MicrosecondBuckets) {
  Metrics m;
  m.on_complete(ok_result(500));    // 0.5 us -> bucket 0 ([0, 2) us)
  m.on_complete(ok_result(3e3));    // 3 us   -> bucket 1 ([2, 4) us)
  m.on_complete(ok_result(1e6));    // 1000 us -> bucket 9 ([512, 1024) us)
  m.on_complete(ok_result(1e15));   // overflow tail -> last bucket
  const auto hist = m.values(Series::kLatencyVirtualUs);
  ASSERT_EQ(hist.size(), static_cast<std::size_t>(Metrics::kLatencyBuckets));
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[9], 1u);
  EXPECT_EQ(hist[Metrics::kLatencyBuckets - 1], 1u);
  EXPECT_EQ(m.counters().completed, 4u);
}

TEST(Metrics, FailedJobsCountOnlyAsFailures) {
  Metrics m;
  JobResult r;
  r.status = JobStatus::kFailed;
  r.error = "boom";
  m.on_complete(r);
  const Metrics::Counters c = m.counters();
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.completed, 0u);
  for (const std::uint64_t b : m.values(Series::kLatencyVirtualUs)) {
    EXPECT_EQ(b, 0u);
  }
  EXPECT_EQ(m.accuracy().count, 0u);
}

TEST(Metrics, AuditCountersTrackHitRate) {
  Metrics m;
  JobResult hit = ok_result(1e3);
  hit.audited = true;
  hit.plan_hit = true;
  JobResult miss = ok_result(1e3);
  miss.audited = true;
  miss.plan_hit = false;
  m.on_complete(hit);
  m.on_complete(miss);
  m.on_complete(ok_result(1e3));  // unaudited
  const Metrics::Counters c = m.counters();
  EXPECT_EQ(c.audited, 2u);
  EXPECT_EQ(c.plan_hits, 1u);
}

TEST(Metrics, AccuracySplitsCalibratedErrorIntoHalves) {
  Metrics m;
  // First half: calibrated estimate off by 100%; second half: exact.
  for (int i = 0; i < 2; ++i) {
    JobResult r = ok_result(100.0);
    r.plan.predicted_raw_ns = 200.0;
    r.plan.predicted_ns = 200.0;
    m.on_complete(r);
  }
  for (int i = 0; i < 2; ++i) {
    JobResult r = ok_result(100.0);
    r.plan.predicted_raw_ns = 200.0;
    r.plan.predicted_ns = 100.0;
    m.on_complete(r);
  }
  const Metrics::Accuracy a = m.accuracy();
  EXPECT_EQ(a.count, 4u);
  EXPECT_DOUBLE_EQ(a.mean_rel_err_raw, 1.0);
  EXPECT_DOUBLE_EQ(a.mean_rel_err_cal, 0.5);
  EXPECT_DOUBLE_EQ(a.first_half_cal, 1.0);
  EXPECT_DOUBLE_EQ(a.second_half_cal, 0.0);
}

TEST(Metrics, QueueDepthHighWaterIsMonotone) {
  Metrics m;
  m.raise(Series::kQueueDepthHighWater, 3);
  m.raise(Series::kQueueDepthHighWater, 1);
  EXPECT_EQ(m.values(Series::kQueueDepthHighWater)[0], 3u);
}

TEST(Metrics, JsonCarriesEverySection) {
  Metrics m;
  m.on_admission(Admission::kAccepted);
  m.on_complete(ok_result(1e3));
  const std::string json = m.json(Metrics::Scope::kDeterministic);
  for (const char* key :
       {"\"counters\"", "\"submitted\": 1", "\"completed\": 1",
        "\"queue_depth_high_water\"", "\"plan_audit\"", "\"hit_rate\"",
        "\"accuracy\"", "\"mean_rel_err_calibrated\"",
        "\"latency_virtual_us_log2_buckets\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Metrics, HistogramCsvHasOneRowPerBucket) {
  Metrics m;
  m.on_complete(ok_result(3e3));
  const std::string csv = m.histogram_csv(Series::kLatencyVirtualUs);
  EXPECT_EQ(csv.rfind("bucket_lo_us,bucket_hi_us,count\n", 0), 0u);
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u + Metrics::kLatencyBuckets);
  EXPECT_NE(csv.find("2,4,1\n"), std::string::npos);  // the 3 us job
  EXPECT_NE(csv.find(",inf,"), std::string::npos);    // overflow tail row
}

TEST(Metrics, OnlyDeterministicSeriesReachTheReplayScopeAndTheSnapshot) {
  // The replay fingerprint holds json(kDeterministic) and a snapshot must
  // restore every deterministic series. Walking the table checks a row
  // added later without editing this test.
  Metrics base;
  fire_every_event(base);
  for (std::size_t i = 0; i < Metrics::kSeriesCount; ++i) {
    const Metrics::Row& row = Metrics::kRows[i];
    const auto s = static_cast<Series>(i);
    if (row.scope != Metrics::Scope::kDeterministic) {
      Metrics m;
      fire_every_event(m);
      for (int c = 0; c < row.cells; ++c) {
        m.add(s, 1, static_cast<std::size_t>(c));
      }
      EXPECT_EQ(m.json(Metrics::Scope::kDeterministic),
                base.json(Metrics::Scope::kDeterministic))
          << row.name;
      EXPECT_NE(m.json(row.scope), base.json(row.scope)) << row.name;
      continue;
    }
    Metrics m;
    if (row.kind == Metrics::Kind::kSamples) {
      JobResult r = ok_result(100.0);
      r.plan.predicted_raw_ns = 150.0;
      r.plan.predicted_ns = 120.0;
      m.on_complete(r);
    } else {
      for (int c = 0; c < row.cells; ++c) {
        m.add(s, static_cast<std::uint64_t>(c) + 1,
              static_cast<std::size_t>(c));
      }
    }
    EXPECT_FALSE(m.export_state() == Metrics().export_state()) << row.name;
    SnapshotData snap;
    snap.metrics = m.export_state();
    Metrics restored;
    restored.import_state(decode_snapshot(encode_snapshot(snap)).metrics);
    EXPECT_TRUE(restored.export_state() == m.export_state()) << row.name;
    EXPECT_EQ(restored.json(Metrics::Scope::kDeterministic),
              m.json(Metrics::Scope::kDeterministic))
        << row.name;
  }

  Metrics m;
  m.add(Series::kHeartbeats);
  m.add(Series::kHedgesIssued);
  m.add(Series::kHedgesWon);
  m.add(Series::kHedgeLosers);
  m.add(Series::kIntegrityViolations);
  m.add(Series::kWorkersQuarantined);
  m.add(Series::kDegradedAppends, 3);
  m.add(Series::kNonDurableJobs, 2);
  m.add(Series::kHeals);
  m.add(Series::kSnapshotFailures);
  const Metrics::Cluster cl = m.cluster();
  EXPECT_EQ(cl.heartbeats, 1u);
  EXPECT_EQ(cl.hedges_issued, 1u);
  EXPECT_EQ(cl.hedges_won, 1u);
  EXPECT_EQ(cl.hedge_losers, 1u);
  EXPECT_EQ(cl.integrity_violations, 1u);
  EXPECT_EQ(cl.workers_quarantined, 1u);

  const Metrics::DiskHealth dh = m.disk_health();
  EXPECT_EQ(dh.degraded_appends, 3u);
  EXPECT_EQ(dh.non_durable_jobs, 2u);
  EXPECT_EQ(dh.heals, 1u);
  EXPECT_EQ(dh.snapshot_failures, 1u);
}

TEST(Metrics, ClusterJsonCarriesHealthGaugesAndDiskJsonTheDurabilityState) {
  Metrics m;
  m.on_worker_gauge(1, 2, 0, 1, 3);
  m.add(Series::kHeartbeats);
  m.add(Series::kHedgesIssued);
  m.add(Series::kIntegrityViolations);
  const std::string cj = m.json(Metrics::Scope::kHost);
  for (const char* key :
       {"\"health\"", "\"heartbeats\": 1", "\"hedges_issued\": 1",
        "\"integrity_violations\": 1", "\"workers_quarantined\": 0",
        "\"quarantined\": 3"}) {
    EXPECT_NE(cj.find(key), std::string::npos) << key << " in " << cj;
  }

  m.add(Series::kDegradedAppends, 5);
  m.add(Series::kNonDurableJobs, 4);
  m.add(Series::kHeals);
  const std::string dj = m.json(Metrics::Scope::kEnvironment);
  for (const char* key :
       {"\"degraded_appends\": 5", "\"non_durable_jobs\": 4", "\"heals\": 1",
        "\"snapshot_failures\": 0"}) {
    EXPECT_NE(dj.find(key), std::string::npos) << key << " in " << dj;
  }
}

}  // namespace
}  // namespace dsm::svc
