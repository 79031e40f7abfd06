// Overload-control tests: the bounded unordered ring (admission gate with hysteresis
// and retry priority), duplicate handling under overload, the gate's response to a
// sustained backlog, the client-side shed budget, and the follower scrub that evicts
// entries the leader's gate refused.
#include <gtest/gtest.h>

#include "src/lazylog/erwin_cluster.h"
#include "src/workload/drivers.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

ErwinClusterOptions TinyRingOptions() {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 1;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  opt.params.seq.ring_high_watermark = 8;
  opt.params.seq.ring_low_watermark = 4;
  return opt;
}

SeqAppendReq RawAppend(uint64_t request_id, const char* payload) {
  SeqAppendReq req;
  req.view = 0;
  req.id = RecordId{777, request_id};
  req.payload = payload;
  return req;
}

// Flooding a replica past the high watermark refuses the excess with kOverloaded
// before any CPU is charged, and a retry of an append admitted before the gate closed
// is dup-acked, never refused (acked appends must not observe kOverloaded).
TEST(Overload, GateShedsAtHighWatermarkAndDupAcksAdmitted) {
  ErwinCluster cluster(TinyRingOptions());
  RpcEndpoint raw(&cluster.network());
  // A follower: nothing orders its ring, so the fill is deterministic and permanent.
  const NodeId follower = cluster.seq_replica(1).node_id();
  int ok = 0, overloaded = 0;
  for (uint64_t i = 1; i <= 20; ++i) {
    raw.CallMsg(follower, kSeqAppend, RawAppend(i, "x"),
                [&](Status s, Decoder) {
                  ok += s.ok() ? 1 : 0;
                  overloaded += s.code() == StatusCode::kOverloaded ? 1 : 0;
                },
                kSec);
  }
  cluster.RunFor(5 * kMs);
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(overloaded, 12);
  OrdererStatsSnapshot snap = cluster.seq_replica(1).StatsSnapshot();
  EXPECT_EQ(snap.counters.admitted, 8u);
  EXPECT_EQ(snap.counters.overload_rejected, 12u);
  EXPECT_EQ(snap.counters.ring_high_water, 8u);
  EXPECT_EQ(snap.ring_occupancy, 8u);
  EXPECT_FALSE(snap.admitting);

  Status dup = Status::Timeout();
  raw.CallMsg(follower, kSeqAppend, RawAppend(1, "x"),
              [&](Status s, Decoder) { dup = s; }, kSec);
  cluster.RunFor(5 * kMs);
  EXPECT_TRUE(dup.ok()) << dup.ToString();
  snap = cluster.seq_replica(1).StatsSnapshot();
  EXPECT_GE(snap.counters.duplicates_filtered, 1u);
  EXPECT_EQ(snap.counters.overload_rejected, 12u);
}

// Once ordering drains the leader's ring below the low watermark, the gate reopens,
// and an id the gate previously refused counts as an overload retry when admitted.
TEST(Overload, GateReopensAfterDrainAndCountsRetries) {
  ErwinClusterOptions opt = TinyRingOptions();
  // Slow cadence so the fill phase is deterministic: no ordering tick can drain the
  // ring while the flood is still arriving.
  opt.params.seq.ordering_interval_ns = 5 * kMs;
  ErwinCluster cluster(opt);
  RpcEndpoint raw(&cluster.network());
  const NodeId leader = cluster.seq_replica(0).node_id();
  int ok = 0, overloaded = 0;
  for (uint64_t i = 1; i <= 20; ++i) {
    raw.CallMsg(leader, kSeqAppend, RawAppend(i, "x"),
                [&](Status s, Decoder) {
                  ok += s.ok() ? 1 : 0;
                  overloaded += s.code() == StatusCode::kOverloaded ? 1 : 0;
                },
                kSec);
  }
  cluster.RunFor(1 * kMs);
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(overloaded, 12);
  EXPECT_FALSE(cluster.seq_replica(0).StatsSnapshot().admitting);

  // Let background ordering drain the ring past the low watermark.
  cluster.RunFor(50 * kMs);
  Status retry = Status::Timeout();
  raw.CallMsg(leader, kSeqAppend, RawAppend(15, "x"),
              [&](Status s, Decoder) { retry = s; }, kSec);
  cluster.RunFor(5 * kMs);
  EXPECT_TRUE(retry.ok()) << retry.ToString();
  OrdererStatsSnapshot snap = cluster.seq_replica(0).StatsSnapshot();
  EXPECT_TRUE(snap.admitting);
  EXPECT_EQ(snap.counters.overload_retried, 1u);
}

// admission_control=false restores the unbounded pre-gate behavior.
TEST(Overload, StaticKnobsNeverRejectOrAdapt) {
  ErwinClusterOptions opt = TinyRingOptions();
  opt.params.seq.admission_control = false;
  ErwinCluster cluster(opt);
  RpcEndpoint raw(&cluster.network());
  const NodeId follower = cluster.seq_replica(1).node_id();
  int ok = 0;
  for (uint64_t i = 1; i <= 50; ++i) {
    raw.CallMsg(follower, kSeqAppend, RawAppend(i, "x"),
                [&](Status s, Decoder) { ok += s.ok() ? 1 : 0; }, kSec);
  }
  cluster.RunFor(5 * kMs);
  EXPECT_EQ(ok, 50);  // 50 admitted entries, far past the (ignored) watermark of 8
  OrdererStatsSnapshot snap = cluster.seq_replica(1).StatsSnapshot();
  EXPECT_EQ(snap.counters.overload_rejected, 0u);
  EXPECT_TRUE(snap.admitting);
  EXPECT_EQ(snap.ring_occupancy, 50u);
}

// Under sustained 2x overload the gate sheds and the ring peaks at the high
// watermark; once load stops and the ring drains, admission resumes.
TEST(Overload, GateShedsUnderBacklogAndRecovers) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 1;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();
  // Open-loop ~2M appends/s against a ~1M/s sequencer core for 15ms.
  for (uint64_t i = 0; i < 30000; ++i) {
    cluster.loop().Schedule(i * 500, [&client]() { client->log().Append("x", [](Status) {}); });
  }
  cluster.RunFor(15 * kMs);
  OrdererStatsSnapshot snap = cluster.seq_replica(0).StatsSnapshot();
  EXPECT_GT(snap.counters.overload_rejected, 0u);
  EXPECT_EQ(snap.counters.ring_high_water, cluster.params().seq.ring_high_watermark);

  cluster.RunFor(100 * kMs);
  // The gate latch re-evaluates at the next admission attempt; a probe append after
  // the drain must sail through and leave the gate open.
  EXPECT_TRUE(AppendSyncly(cluster.loop(), *client, "probe"));
  cluster.RunFor(5 * kMs);
  snap = cluster.seq_replica(0).StatsSnapshot();
  EXPECT_TRUE(snap.admitting);
  EXPECT_EQ(snap.ring_occupancy, 0u);
}

// When the whole sequencing tier refuses an append, the client retries on the short
// overload backoff a few times and then surfaces kOverloaded — it does not park the
// append forever. Appends admitted before the ring filled still ack normally. Run in
// both modes: the shared verdict ladder finds the leader's reply at slot 0 on Erwin-m
// and after the data writes on Erwin-st.
void CheckClientSurfacesOverloadedAfterShedBudget(ErwinMode mode) {
  ErwinClusterOptions opt = TinyRingOptions();
  opt.mode = mode;
  // Freeze ordering so the ring stays full for the whole test: every post-fill
  // append is refused by all replicas until the client sheds it.
  opt.params.seq.ordering_interval_ns = 500 * kMs;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeClient();
  int ok = 0, overloaded = 0, other = 0, resolved = 0;
  // Trickle the appends (spacing >> network jitter) so every replica sees the same
  // arrival order and admits the same first 8.
  for (uint64_t i = 0; i < 50; ++i) {
    cluster.loop().Schedule(i * 20 * kUs, [&]() {
      client->log().Append("x", [&](Status s) {
        resolved++;
        if (s.ok()) {
          ok++;
        } else if (s.code() == StatusCode::kOverloaded) {
          overloaded++;
        } else {
          other++;
        }
      });
    });
  }
  cluster.RunFor(200 * kMs);
  EXPECT_EQ(resolved, 50);
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(overloaded, 42);
  EXPECT_EQ(other, 0);
}

TEST(Overload, ClientSurfacesOverloadedAfterShedBudget) {
  CheckClientSurfacesOverloadedAfterShedBudget(ErwinMode::kM);
}

TEST(Overload, ClientSurfacesOverloadedAfterShedBudgetSt) {
  CheckClientSurfacesOverloadedAfterShedBudget(ErwinMode::kSt);
}

// A follower wedged by entries the leader's gate shed (admitted here, refused there —
// never ordered, so GC never collects them) recovers: once ordering progress proves
// the leader does not hold them and they outlive the append timeout, the scrub evicts
// them, and meanwhile client retries of ordered appends complete via the dup filter.
// No acked append is lost and no gate stays wedged.
TEST(Overload, FollowerScrubEvictsLeaderShedEntries) {
  ErwinCluster cluster(TinyRingOptions());
  RpcEndpoint raw(&cluster.network());
  const NodeId follower = cluster.seq_replica(1).node_id();
  // Wedge the follower's ring with 8 entries the leader never sees.
  int dead_ok = 0;
  for (uint64_t i = 1; i <= 8; ++i) {
    raw.CallMsg(follower, kSeqAppend, RawAppend(i, "dead"),
                [&](Status s, Decoder) { dead_ok += s.ok() ? 1 : 0; }, kSec);
  }
  cluster.RunFor(2 * kMs);
  ASSERT_EQ(dead_ok, 8);
  ASSERT_EQ(cluster.seq_replica(1).unordered_size(), 8u);

  // Normal appends, paced well below capacity: the leader's ring holds entries until
  // the shards ack the pushed windows, so pacing must exceed that round trip for the
  // leader (same tiny watermarks) to keep admitting. The wedged follower refuses
  // these at first, but the leader admits and orders them, and the client keeps
  // retrying (leader-admitted appends are never shed) until the follower dup-acks.
  auto client = cluster.MakeMClient();
  int acked = 0, failed = 0;
  auto cb = [&](Status s) { (s.ok() ? acked : failed)++; };
  for (uint64_t i = 0; i < 40; ++i) {
    cluster.loop().Schedule(i * 250 * kUs, [&client, cb]() { client->log().Append("x", cb); });
  }
  cluster.RunFor(25 * kMs);
  // A second wave keeps GC rounds (the scrub trigger) coming after the dead entries
  // have aged past the append timeout.
  for (uint64_t i = 0; i < 10; ++i) {
    cluster.loop().Schedule(i * 250 * kUs, [&client, cb]() { client->log().Append("y", cb); });
  }
  cluster.RunFor(30 * kMs);

  EXPECT_EQ(acked, 50);
  EXPECT_EQ(failed, 0);
  OrdererStatsSnapshot snap = cluster.seq_replica(1).StatsSnapshot();
  EXPECT_EQ(snap.counters.shed_scrubbed, 8u);
  EXPECT_EQ(cluster.seq_replica(1).unordered_size(), 0u);
  // The dead entries never became log positions; the 50 real appends all did.
  for (uint32_t i = 0; i < cluster.num_seq_replicas(); ++i) {
    EXPECT_EQ(cluster.seq_replica(i).ordered_gp(), 50u) << "replica " << i;
  }
}

}  // namespace
}  // namespace lazylog
