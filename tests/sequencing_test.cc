// Sequencing-replica tests at the protocol level: coordination-free appends, duplicate
// filtering, background ordering and GC, stable-gp advancement, checkTail, seal
// semantics, and batching statistics.
#include <gtest/gtest.h>

#include "src/lazylog/erwin_cluster.h"
#include "src/workload/drivers.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

ErwinClusterOptions MOptions(uint32_t shards = 1) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = shards;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  return opt;
}

TEST(Sequencing, AppendLandsOnAllReplicas) {
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "x"));
  // Before background ordering, every replica holds the record.
  uint64_t holders = 0;
  for (uint32_t i = 0; i < cluster.num_seq_replicas(); ++i) {
    holders += cluster.seq_replica(i).unordered_size() > 0 ||
               cluster.seq_replica(i).ordered_gp() > 0;
  }
  EXPECT_EQ(holders, cluster.num_seq_replicas());
}

TEST(Sequencing, BackgroundOrderingGcsAllReplicas) {
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "r" + std::to_string(i)));
  }
  cluster.RunFor(20 * kMs);
  for (uint32_t i = 0; i < cluster.num_seq_replicas(); ++i) {
    EXPECT_EQ(cluster.seq_replica(i).unordered_size(), 0u) << "replica " << i;
    EXPECT_EQ(cluster.seq_replica(i).ordered_gp(), 5u) << "replica " << i;
  }
  EXPECT_EQ(cluster.leader().stable_gp(), 5u);
}

TEST(Sequencing, StableGpNeverExceedsOrderedGp) {
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 50; ++i) {
    client->log().Append("x", [](Status) {});
    cluster.RunFor(100 * kUs);
    EXPECT_LE(cluster.leader().stable_gp(), cluster.leader().ordered_gp());
  }
}

TEST(Sequencing, DuplicateAppendFiltered) {
  ErwinCluster cluster(MOptions());
  // Two identical append requests (same record id) must produce one log entry.
  RpcEndpoint client(&cluster.network());
  SeqAppendReq req;
  req.view = 0;
  req.id = RecordId{77, 1};
  req.payload = "dup";
  int acks = 0;
  for (int i = 0; i < 2; ++i) {
    client.CallMsg(cluster.seq_replica(0).node_id(), kSeqAppend, req,
                   [&](Status s, Decoder) { acks += s.ok() ? 1 : 0; }, kSec);
  }
  cluster.RunFor(5 * kMs);
  EXPECT_EQ(acks, 2);  // both report success (idempotent)
  EXPECT_EQ(cluster.seq_replica(0).StatsSnapshot().counters.appends, 1u);
  EXPECT_EQ(cluster.seq_replica(0).StatsSnapshot().counters.duplicates_filtered, 1u);
}

TEST(Sequencing, DuplicateFilteredEvenAfterGc) {
  // The paper's footnote: a request reaching a follower after the leader already
  // garbage-collected that record must be treated as a duplicate.
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "first"));
  cluster.RunFor(20 * kMs);  // ordered + GC'd everywhere
  ASSERT_EQ(cluster.seq_replica(1).unordered_size(), 0u);
  // Re-deliver the same record id to a follower.
  RpcEndpoint raw(&cluster.network());
  SeqAppendReq req;
  req.view = 0;
  req.id = RecordId{1, 1};  // first client id is 1, first request id is 1
  req.payload = "first";
  Status status;
  raw.CallMsg(cluster.seq_replica(1).node_id(), kSeqAppend, req,
              [&](Status s, Decoder) { status = s; }, kSec);
  cluster.RunFor(5 * kMs);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(cluster.seq_replica(1).unordered_size(), 0u);  // filtered, not re-appended
  EXPECT_GE(cluster.seq_replica(1).StatsSnapshot().counters.duplicates_filtered, 1u);
}

// Raw protocol helpers for the duplicate-filter tests below: they talk to one replica
// directly, so only the messages a test sends reach it.
Status RawAppend(ErwinCluster& cluster, RpcEndpoint& raw, uint32_t replica, RecordId id) {
  SeqAppendReq req;
  req.view = 0;
  req.id = id;
  req.payload = "x";
  Status status = Status::Unavailable("no reply");
  raw.CallMsg(cluster.seq_replica(replica).node_id(), kSeqAppend, req,
              [&](Status s, Decoder) { status = s; }, kSec);
  cluster.RunFor(2 * kMs);
  return status;
}

Status RawGc(ErwinCluster& cluster, RpcEndpoint& raw, uint32_t replica,
             std::vector<RecordId> ids) {
  SeqGcReq req;
  req.view = 0;
  req.new_ordered_gp = cluster.seq_replica(replica).ordered_gp();
  for (const RecordId& id : ids) {
    req.ids.push_back(WireRecordId{id});
  }
  Status status = Status::Unavailable("no reply");
  raw.CallMsg(cluster.seq_replica(replica).node_id(), kSeqGc, req,
              [&](Status s, Decoder) { status = s; }, kSec);
  cluster.RunFor(2 * kMs);
  return status;
}

TEST(Sequencing, FollowerGcKeepsUnorderedEntriesInArrivalOrder) {
  // A follower GC names ids out of ring order; the survivors keep arrival order and
  // the collected ids stay filtered as recently ordered.
  ErwinCluster cluster(MOptions());
  RpcEndpoint raw(&cluster.network());
  SequencingReplica& follower = cluster.seq_replica(1);
  const RecordId a{900, 1}, b{900, 2}, c{900, 3}, d{900, 4}, e{900, 5};
  for (const RecordId& id : {a, b, c, d}) {
    ASSERT_TRUE(RawAppend(cluster, raw, 1, id).ok());
  }
  ASSERT_EQ(follower.LogIds(), (std::vector<RecordId>{a, b, c, d}));
  ASSERT_TRUE(RawGc(cluster, raw, 1, {d, b}).ok());
  EXPECT_EQ(follower.LogIds(), (std::vector<RecordId>{a, c}));
  EXPECT_EQ(follower.unordered_size(), 2u);

  const uint64_t dups = follower.StatsSnapshot().counters.duplicates_filtered;
  EXPECT_TRUE(RawAppend(cluster, raw, 1, b).ok());
  EXPECT_TRUE(RawAppend(cluster, raw, 1, d).ok());
  EXPECT_EQ(follower.StatsSnapshot().counters.duplicates_filtered, dups + 2);
  EXPECT_EQ(follower.LogIds(), (std::vector<RecordId>{a, c}));

  EXPECT_TRUE(RawAppend(cluster, raw, 1, e).ok());
  EXPECT_EQ(follower.LogIds(), (std::vector<RecordId>{a, c, e}));
}

TEST(Sequencing, OrderedIdIsForgottenAfterTheRetryWindow) {
  // The recently-ordered filter holds an id for 4 x rpc_timeout_ns, and expiry runs
  // only when a later ordering round remembers new ids.
  ErwinCluster cluster(MOptions());
  RpcEndpoint raw(&cluster.network());
  SequencingReplica& follower = cluster.seq_replica(1);
  const uint64_t window = 4 * cluster.params().rpc_timeout_ns;
  const RecordId a{901, 1}, z{901, 2};
  ASSERT_TRUE(RawAppend(cluster, raw, 1, a).ok());
  ASSERT_TRUE(RawGc(cluster, raw, 1, {a}).ok());
  ASSERT_TRUE(follower.LogIds().empty());

  // Inside the window: filtered.
  cluster.RunFor(window / 2);
  EXPECT_TRUE(RawAppend(cluster, raw, 1, a).ok());
  EXPECT_TRUE(follower.LogIds().empty());

  // Past the window but before another ordering round: still filtered.
  cluster.RunFor(window);
  EXPECT_TRUE(RawAppend(cluster, raw, 1, a).ok());
  EXPECT_TRUE(follower.LogIds().empty());

  // A later ordering round prunes it; a re-sent a is then a fresh append.
  ASSERT_TRUE(RawAppend(cluster, raw, 1, z).ok());
  ASSERT_TRUE(RawGc(cluster, raw, 1, {z}).ok());
  ASSERT_TRUE(follower.LogIds().empty());
  EXPECT_TRUE(RawAppend(cluster, raw, 1, a).ok());
  EXPECT_EQ(follower.LogIds(), (std::vector<RecordId>{a}));
}

TEST(Sequencing, CheckTailCountsDurableAndStable) {
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "x"));
  }
  TailResult t1 = TailSyncly(cluster.loop(), *client);
  EXPECT_EQ(t1.durable, 3u);
  cluster.RunFor(20 * kMs);
  TailResult t2 = TailSyncly(cluster.loop(), *client);
  EXPECT_EQ(t2.durable, 3u);
  EXPECT_EQ(t2.stable, 3u);
}

TEST(Sequencing, SealedReplicaRejectsAppends) {
  ErwinCluster cluster(MOptions());
  RpcEndpoint raw(&cluster.network());
  SeqSealReq seal{0};
  bool sealed = false;
  raw.CallMsg(cluster.seq_replica(0).node_id(), kSeqSeal, seal,
              [&](Status s, Decoder) { sealed = s.ok(); }, kSec);
  cluster.RunFor(2 * kMs);
  ASSERT_TRUE(sealed);
  EXPECT_TRUE(cluster.seq_replica(0).sealed());
  SeqAppendReq req;
  req.view = 0;
  req.id = RecordId{5, 1};
  req.payload = "rejected";
  Status status;
  raw.CallMsg(cluster.seq_replica(0).node_id(), kSeqAppend, req,
              [&](Status s, Decoder) { status = s; }, kSec);
  cluster.RunFor(2 * kMs);
  EXPECT_EQ(status.code(), StatusCode::kSealed);
}

TEST(Sequencing, WrongViewAppendRejected) {
  ErwinCluster cluster(MOptions());
  RpcEndpoint raw(&cluster.network());
  SeqAppendReq req;
  req.view = 42;  // bogus view
  req.id = RecordId{5, 1};
  req.payload = "x";
  Status status;
  raw.CallMsg(cluster.seq_replica(0).node_id(), kSeqAppend, req,
              [&](Status s, Decoder) { status = s; }, kSec);
  cluster.RunFor(2 * kMs);
  EXPECT_EQ(status.code(), StatusCode::kWrongView);
}

TEST(Sequencing, CheckTailOnFollowerSaysNotLeader) {
  ErwinCluster cluster(MOptions());
  RpcEndpoint raw(&cluster.network());
  Status status;
  raw.Call(cluster.seq_replica(1).node_id(), kSeqCheckTail, "",
           [&](Status s, Decoder) { status = s; }, kSec);
  cluster.RunFor(2 * kMs);
  EXPECT_EQ(status.code(), StatusCode::kNotLeader);
}

TEST(Sequencing, BatchSizeGrowsWithRate) {
  // Fig 11's right axis: higher append rates produce larger background batches.
  auto avg_batch_at = [](double rate) {
    ErwinCluster cluster(MOptions());
    auto client = cluster.MakeMClient();
    OpenLoopAppender::Options opt;
    opt.rate_per_sec = rate;
    opt.record_bytes = 512;
    OpenLoopAppender appender(&cluster.loop(), client->log(), opt);
    appender.Start();
    cluster.RunFor(200 * kMs);
    appender.Stop();
    return cluster.seq_replica(0).StatsSnapshot().counters.AvgBatchSize();
  };
  const double low = avg_batch_at(5'000);
  const double high = avg_batch_at(50'000);
  EXPECT_GT(high, low * 2);
}

TEST(Sequencing, MultiShardStriping) {
  ErwinCluster cluster(MOptions(/*shards=*/3));
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "s" + std::to_string(i)));
  }
  cluster.RunFor(20 * kMs);
  // p mod n placement: each shard holds exactly 3 records.
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.shard(s, 0).ordered_records(), 3u) << "shard " << s;
  }
  // And position p lives on shard p mod 3.
  for (LogPos p = 0; p < 9; ++p) {
    EXPECT_NE(cluster.shard(p % 3, 0).RecordAt(p), nullptr);
  }
}

}  // namespace
}  // namespace lazylog
