// Multi-tenant virtual-log ("phylog") tests: registry propagation + Open-by-name,
// per-log rank-space reads/tails, per-tenant quota enforcement (kQuotaExceeded, not
// kOverloaded), log deletion racing in-flight appends, and DRR admission fairness when
// one tenant tries to own the sequencing ring.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/lazylog/erwin_cluster.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

// Finds the per-log counter row in a snapshot; null if the log never had traffic.
const OrdererStats::PerLog* FindLog(const OrdererStatsSnapshot& snap, LogId log) {
  for (const auto& pl : snap.logs) {
    if (pl.log == log) {
      return &pl;
    }
  }
  return nullptr;
}

// CreateLog through the controller propagates to the sequencing tier and to clients;
// Open resolves names to handles; each named log projects its own dense rank space
// (reads labelled 0..n-1 per log) out of the shared physical order.
TEST(Multitenant, OpenByNameAndRankSpaceReads) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  ErwinCluster cluster(opt);
  const LogId alpha_id = cluster.CreateLog("alpha");
  const LogId beta_id = cluster.CreateLog("beta");
  ASSERT_NE(alpha_id, kDefaultLog);
  ASSERT_NE(beta_id, kDefaultLog);
  ASSERT_NE(alpha_id, beta_id);
  cluster.RunFor(5 * kMs);  // let the controller push the registry to the replicas

  auto client = cluster.MakeClient();
  LogHandle alpha = OpenSyncly(cluster.loop(), *client, "alpha");
  LogHandle beta = OpenSyncly(cluster.loop(), *client, "beta");
  ASSERT_TRUE(alpha.valid());
  ASSERT_TRUE(beta.valid());
  EXPECT_EQ(alpha.id(), alpha_id);
  EXPECT_EQ(beta.id(), beta_id);
  EXPECT_FALSE(OpenSyncly(cluster.loop(), *client, "no-such-log").valid());

  // Interleave the three logs so the per-log rank spaces are strict subsequences of
  // the global order.
  ASSERT_TRUE(AppendSyncly(cluster.loop(), client->log(), "d0"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), alpha, "a0"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), beta, "b0"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), alpha, "a1"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), client->log(), "d1"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), beta, "b1"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), alpha, "a2"));
  cluster.RunFor(20 * kMs);  // ordering + index propagation

  // The physical log sees all 7 records in global position space.
  TailResult phys = TailSyncly(cluster.loop(), client->log());
  ASSERT_TRUE(phys.status.ok()) << phys.status.ToString();
  EXPECT_EQ(phys.stable, 7u);

  // Named tails are rank counts, not global positions.
  TailResult at = TailSyncly(cluster.loop(), alpha);
  ASSERT_TRUE(at.status.ok()) << at.status.ToString();
  EXPECT_EQ(at.stable, 3u);
  TailResult bt = TailSyncly(cluster.loop(), beta);
  ASSERT_TRUE(bt.status.ok()) << bt.status.ToString();
  EXPECT_EQ(bt.stable, 2u);

  // Ranked reads: positions are relabelled 0..n-1 per log, payloads in append order,
  // no foreign-log records.
  auto arecs = ReadSyncly(cluster.loop(), alpha, 0, 3);
  ASSERT_TRUE(arecs.has_value());
  ASSERT_EQ(arecs->size(), 3u);
  const std::vector<std::string> want_a = {"a0", "a1", "a2"};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*arecs)[i].pos, i);
    EXPECT_EQ((*arecs)[i].record.payload.ToString(), want_a[i]);
    EXPECT_EQ((*arecs)[i].record.log, alpha_id);
  }
  auto brecs = ReadSyncly(cluster.loop(), beta, 0, 2);
  ASSERT_TRUE(brecs.has_value());
  ASSERT_EQ(brecs->size(), 2u);
  EXPECT_EQ((*brecs)[0].record.payload.ToString(), "b0");
  EXPECT_EQ((*brecs)[1].record.payload.ToString(), "b1");

  // Trim stays a physical-log operation: rank spaces are not trimmable.
  Status trim = TrimSyncly(cluster.loop(), alpha, 1);
  EXPECT_EQ(trim.code(), StatusCode::kInvalidArgument);
}

// A metered tenant that floods one pipeline window past its token bucket gets
// kQuotaExceeded — never kOverloaded — on the excess, the refusals are counted per
// log, an unmetered tenant on the same cluster is untouched, and the bucket refills.
// Run in both modes: the quota verdict is read from the leader's reply slot, which
// follows the data writes on Erwin-st.
void CheckQuotaExhaustionMidPipelineWindow(ErwinMode mode) {
  ErwinClusterOptions opt;
  opt.mode = mode;
  opt.with_control_plane = false;
  ErwinCluster cluster(opt);
  // quota 200/s -> burst bucket clamps to 16 tokens; the flood below is 4x that.
  const LogId metered_id = cluster.CreateLog("metered", /*quota_per_sec=*/200);
  const LogId free_id = cluster.CreateLog("free-rider");
  cluster.RunFor(1 * kMs);

  auto client = cluster.MakeClient();
  LogHandle metered = client->handle(metered_id, "metered");
  LogHandle free_rider = client->handle(free_id, "free-rider");

  int ok = 0, quota = 0, other = 0;
  for (int i = 0; i < 64; ++i) {
    metered.Append("m" + std::to_string(i), [&](Status s) {
      if (s.ok()) {
        ok++;
      } else if (s.code() == StatusCode::kQuotaExceeded) {
        quota++;
      } else {
        other++;
      }
    });
  }
  cluster.RunFor(50 * kMs);
  EXPECT_EQ(ok + quota + other, 64);
  EXPECT_EQ(other, 0);
  // The burst bucket admits ~16; client retries may scavenge a few refill tokens.
  EXPECT_GE(ok, 16);
  EXPECT_LE(ok, 24);
  EXPECT_GE(quota, 40);

  OrdererStatsSnapshot snap = cluster.seq_replica(0).StatsSnapshot();
  EXPECT_GT(snap.counters.quota_rejected, 0u);
  const OrdererStats::PerLog* pm = FindLog(snap, metered_id);
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->admitted, static_cast<uint64_t>(ok));
  // Every shed append spent exactly its retry budget at the leader, one refusal per
  // attempt; appends admitted past the 16-token burst were refused at most the budget
  // minus one times. A leader verdict read from the wrong reply slot would spend an
  // extra attempt per shed append.
  const uint64_t budget = cluster.params().client_overload_retry_limit + 1;
  EXPECT_GE(pm->quota_rejected, quota * budget);
  EXPECT_LE(pm->quota_rejected, quota * budget + (ok - 16) * (budget - 1));

  // Tenant isolation: the refusals are the metered log's own doing — an unmetered
  // tenant on the same (idle) cluster appends without friction.
  EXPECT_TRUE(AppendSyncly(cluster.loop(), free_rider, "f0"));
  const OrdererStatsSnapshot after = cluster.seq_replica(0).StatsSnapshot();
  const OrdererStats::PerLog* pf = FindLog(after, free_id);
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(pf->quota_rejected, 0u);

  // The bucket refills with time: 200ms at 200/s restores the burst allowance.
  cluster.RunFor(200 * kMs);
  EXPECT_TRUE(AppendSyncly(cluster.loop(), metered, "after-refill"));
}

TEST(Multitenant, QuotaExhaustionMidPipelineWindow) {
  CheckQuotaExhaustionMidPipelineWindow(ErwinMode::kM);
}

TEST(Multitenant, QuotaExhaustionMidPipelineWindowSt) {
  CheckQuotaExhaustionMidPipelineWindow(ErwinMode::kSt);
}

// Deleting a log while appends are in flight: racing appends either complete or get
// kInvalidArgument (nothing else), appends issued after the tombstone landed are all
// refused, and records acked before the deletion stay durable and readable.
TEST(Multitenant, DeleteRacesInFlightAppends) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  ErwinCluster cluster(opt);
  const LogId doomed_id = cluster.CreateLog("doomed");
  cluster.RunFor(5 * kMs);

  auto client = cluster.MakeClient();
  LogHandle doomed = OpenSyncly(cluster.loop(), *client, "doomed");
  ASSERT_TRUE(doomed.valid());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), doomed, "keep" + std::to_string(i)));
  }

  // Launch a batch and tombstone the log while it is still in flight: the controller's
  // delete (ZK write + kSeqUpdateLogs push) races these appends to the leader.
  int ok = 0, deleted = 0, other = 0;
  for (int i = 0; i < 12; ++i) {
    doomed.Append("race" + std::to_string(i), [&](Status s) {
      if (s.ok()) {
        ok++;
      } else if (s.code() == StatusCode::kInvalidArgument) {
        deleted++;
      } else {
        other++;
      }
    });
  }
  cluster.DeleteLog("doomed");
  cluster.RunFor(50 * kMs);
  EXPECT_EQ(ok + deleted + other, 12);
  EXPECT_EQ(other, 0);

  // Post-tombstone appends are refused outright.
  Status late = AppendSynclyStatus(cluster.loop(), doomed, "too-late");
  EXPECT_EQ(late.code(), StatusCode::kInvalidArgument) << late.ToString();

  // The id stays reserved in the registry as a tombstone.
  bool tombstoned = false;
  for (const auto& e : cluster.log_registry()) {
    if (e.id == doomed_id) {
      tombstoned = e.deleted;
    }
  }
  EXPECT_TRUE(tombstoned);

  // Everything acked before (and during) the race is still there, in rank order.
  cluster.RunFor(20 * kMs);
  auto recs = ReadSyncly(cluster.loop(), doomed, 0, 3 + static_cast<uint64_t>(ok));
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), 3 + static_cast<size_t>(ok));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*recs)[i].record.payload.ToString(), "keep" + std::to_string(i));
  }
}

// One tenant flooding the ring never starves another: once the ring is congested the
// DRR stage refuses the flooder past its share (counted per log), while the victim's
// trickle keeps landing every round.
TEST(Multitenant, FairnessProtectsVictimFromRingSaturator) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.with_control_plane = false;
  opt.params.seq.ring_high_watermark = 8;
  opt.params.seq.ring_low_watermark = 2;
  opt.params.seq.ordering_interval_ns = 200 * kUs;
  opt.params.seq.max_order_batch = 2;      // small quantum: DRR bites quickly
  opt.params.seq.fairness_burst_quanta = 1;  // no hoarded credit across ticks
  ErwinCluster cluster(opt);
  const LogId hot_id = cluster.CreateLog("hot");
  const LogId victim_id = cluster.CreateLog("victim");
  cluster.RunFor(1 * kMs);

  auto hot_client = cluster.MakeClient();
  auto victim_client = cluster.MakeClient();
  LogHandle hot = hot_client->handle(hot_id, "hot");
  LogHandle victim = victim_client->handle(victim_id, "victim");

  int victim_ok = 0;
  int hot_issued = 0;
  constexpr int kRounds = 30;
  for (int round = 0; round < kRounds; ++round) {
    // Victim's append is in flight while the hot tenant dumps a ring-sized burst on
    // top of it, so the two tenants contend for the same admission band.
    Status vs = Status::Internal("pending");
    bool vdone = false;
    victim.Append("v" + std::to_string(round), [&](Status s) {
      vs = std::move(s);
      vdone = true;
    });
    for (int j = 0; j < 8; ++j) {
      hot.Append("h" + std::to_string(hot_issued++), [](Status) {});
    }
    RunUntilDone(cluster.loop(), vdone, 100 * kMs);
    ASSERT_TRUE(vdone);
    victim_ok += vs.ok() ? 1 : 0;
  }
  cluster.RunFor(20 * kMs);  // drain stragglers

  EXPECT_EQ(victim_ok, kRounds);
  OrdererStatsSnapshot snap = cluster.seq_replica(0).StatsSnapshot();
  EXPECT_GT(snap.counters.drr_rejected, 0u);
  const OrdererStats::PerLog* ph = FindLog(snap, hot_id);
  const OrdererStats::PerLog* pv = FindLog(snap, victim_id);
  ASSERT_NE(ph, nullptr);
  ASSERT_NE(pv, nullptr);
  // The flooder is the one the fairness stage throttled; the victim landed everything
  // (retries dup-ack and re-count, so admitted is a floor, not an exact count).
  EXPECT_GT(ph->drr_rejected, 0u);
  EXPECT_GE(pv->admitted, static_cast<uint64_t>(kRounds));
  EXPECT_GT(ph->admitted, 0u);
  // And fairness refusals surface as kOverloaded (congestion), never kQuotaExceeded:
  // neither log has a quota configured.
  EXPECT_EQ(snap.counters.quota_rejected, 0u);
}

}  // namespace
}  // namespace lazylog
