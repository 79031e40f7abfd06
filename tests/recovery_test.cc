// Reconfiguration tests (§4.5): failure detection through ZooKeeperLite, sealing,
// recovery-replica flush, new-view startup, the stable-gp invariant across leader
// failures (including the paper's Figure-4 scenario), durability of acknowledged
// appends, and client retry across views.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/lazylog/erwin_cluster.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

ErwinClusterOptions Options(ErwinMode mode = ErwinMode::kM) {
  ErwinClusterOptions opt;
  opt.mode = mode;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  opt.with_control_plane = true;
  return opt;
}

// Runs until the controller reports a completed reconfiguration (or a time budget).
bool AwaitReconfig(ErwinCluster& cluster, uint64_t budget_ns = 2 * kSec) {
  bool done = false;
  cluster.controller()->OnReconfigured([&](const ReconfigTiming&) { done = true; });
  const SimTime deadline = cluster.loop().Now() + budget_ns;
  while (!done && cluster.loop().Now() < deadline) {
    cluster.RunFor(1 * kMs);
  }
  return done;
}

TEST(Recovery, FollowerCrashTriggersNewView) {
  ErwinCluster cluster(Options());
  auto client = cluster.MakeMClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "before"));
  cluster.CrashSeqReplica(2);
  ASSERT_TRUE(AwaitReconfig(cluster));
  EXPECT_EQ(cluster.controller()->view(), 1u);
  // The new configuration excludes the crashed replica.
  const auto& config = cluster.controller()->current_config();
  EXPECT_EQ(config.size(), 2u);
  for (NodeId n : config) {
    EXPECT_NE(n, cluster.seq_replica(2).node_id());
  }
}

TEST(Recovery, AckedAppendsSurviveLeaderCrash) {
  ErwinCluster cluster(Options());
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "durable-" + std::to_string(i)));
  }
  // Crash the leader before background ordering can run its next batch.
  cluster.CrashSeqReplica(0);
  ASSERT_TRUE(AwaitReconfig(cluster));
  cluster.RunFor(100 * kMs);
  // Every acknowledged record must be readable exactly once, in real-time order.
  auto records = ReadSyncly(cluster.loop(), *client, 0, 8, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*records)[i].record.payload, "durable-" + std::to_string(i));
  }
}

TEST(Recovery, AppendsResumeInNewView) {
  ErwinCluster cluster(Options());
  auto client = cluster.MakeMClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "old-view"));
  cluster.CrashSeqReplica(1);
  ASSERT_TRUE(AwaitReconfig(cluster));
  // The client discovers the new configuration via its retry protocol.
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "new-view"));
  cluster.RunFor(100 * kMs);
  auto records = ReadSyncly(cluster.loop(), *client, 0, 2, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].record.payload, "old-view");
  EXPECT_EQ((*records)[1].record.payload, "new-view");
  EXPECT_GE(client->view_changes(), 1u);
}

TEST(Recovery, StableGpInvariantFigure4Scenario) {
  // The paper's §4.5 example: a reader observes positions up to the stable-gp; the
  // leader then fails; the recovery replica's flush must not change any exposed
  // binding, even though it may reorder concurrent records beyond stable-gp.
  ErwinCluster cluster(Options());
  auto client = cluster.MakeMClient();
  // Phase 1: three records ordered and stabilized.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "stable-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  ASSERT_GE(cluster.leader().stable_gp(), 3u);
  auto before = ReadSyncly(cluster.loop(), *client, 0, 3, 5 * kSec);
  ASSERT_TRUE(before.has_value());
  // Phase 2: more durable-but-unordered records, then the leader dies.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "tail-" + std::to_string(i)));
  }
  cluster.CrashSeqReplica(0);
  ASSERT_TRUE(AwaitReconfig(cluster));
  cluster.RunFor(100 * kMs);
  // The stable prefix is byte-identical to what the reader saw.
  auto after = ReadSyncly(cluster.loop(), *client, 0, 6, 5 * kSec);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->size(), 6u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*after)[i].record, (*before)[i].record) << "stable binding changed at " << i;
  }
  for (size_t i = 3; i < 6; ++i) {
    EXPECT_EQ((*after)[i].record.payload, "tail-" + std::to_string(i - 3));
  }
}

TEST(Recovery, ClientRetryAcrossViewIsNotDuplicated) {
  // An append in flight during the crash is retried by the client under the same
  // record id; the flushed copy plus the retry must yield exactly one log entry.
  ErwinCluster cluster(Options());
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "pre-" + std::to_string(i)));
  }
  // Issue an append and crash the leader while it is in flight.
  bool acked = false;
  client->log().Append("racer", [&](Status s) { acked = s.ok(); });
  cluster.RunFor(2 * kUs);  // in flight
  cluster.CrashSeqReplica(0);
  ASSERT_TRUE(AwaitReconfig(cluster, 5 * kSec));
  const SimTime deadline = cluster.loop().Now() + 5 * kSec;
  while (!acked && cluster.loop().Now() < deadline) {
    cluster.RunFor(1 * kMs);
  }
  ASSERT_TRUE(acked);
  cluster.RunFor(200 * kMs);
  TailResult tail = TailSyncly(cluster.loop(), *client);
  ASSERT_TRUE(tail.status.ok());
  EXPECT_EQ(tail.durable, 4u) << "retry duplicated or lost the racer append";
  auto records = ReadSyncly(cluster.loop(), *client, 0, 4, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  int racers = 0;
  for (const auto& pr : *records) {
    racers += pr.record.payload == "racer" ? 1 : 0;
  }
  EXPECT_EQ(racers, 1);
}

TEST(Recovery, ReconfigurationBreakdownHasPaperShape) {
  // Fig 17b: detection and view persistence (ZooKeeper) dominate; seal+flush (core
  // recovery) is only hundreds of microseconds.
  ErwinCluster cluster(Options());
  auto client = cluster.MakeMClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "x"));
  const SimTime crash_at = cluster.loop().Now();
  cluster.CrashSeqReplica(2);
  ASSERT_TRUE(AwaitReconfig(cluster));
  const ReconfigTiming& t = cluster.controller()->last_timing();
  ASSERT_TRUE(t.complete);
  const uint64_t detect = t.detected_at - crash_at;
  const uint64_t core = t.flushed_at - t.detected_at;  // seal + flush
  const uint64_t view_write = t.view_written_at - t.flushed_at;
  EXPECT_GT(detect, 2 * kMs);        // ZK session timeout scale
  EXPECT_LT(core, 5 * kMs);          // core recovery is fast
  EXPECT_GT(view_write, 1 * kMs);    // ZK quorum write
  EXPECT_GT(detect + view_write, core);  // ZK dominates (paper's point)
}

TEST(Recovery, ErwinStFlushesMetadataOnCrash) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "st-" + std::to_string(i)));
  }
  cluster.CrashSeqReplica(0);
  ASSERT_TRUE(AwaitReconfig(cluster));
  cluster.RunFor(200 * kMs);
  auto records = ReadSyncly(cluster.loop(), *client, 0, 6, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*records)[i].record.payload, "st-" + std::to_string(i));
    EXPECT_FALSE((*records)[i].record.no_op);
  }
}

TEST(Recovery, SecondFailureTriggersSecondView) {
  ErwinCluster cluster(Options());
  auto client = cluster.MakeMClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "v0"));
  cluster.CrashSeqReplica(2);
  ASSERT_TRUE(AwaitReconfig(cluster));
  ASSERT_EQ(cluster.controller()->view(), 1u);
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "v1"));
  cluster.CrashSeqReplica(1);
  ASSERT_TRUE(AwaitReconfig(cluster));
  EXPECT_EQ(cluster.controller()->view(), 2u);
  // One replica left: the system still orders and serves correctly.
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "v2"));
  cluster.RunFor(200 * kMs);
  auto records = ReadSyncly(cluster.loop(), *client, 0, 3, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].record.payload, "v0");
  EXPECT_EQ((*records)[1].record.payload, "v1");
  EXPECT_EQ((*records)[2].record.payload, "v2");
}

// --- control-plane retry budgets -------------------------------------------------------
// The controller pushes the log registry to each sequencing replica with up to 10
// attempts (5 ms attempt timeout, 2 ms backoff, so roughly 70 ms of reachability
// budget), and retries a new view's StartView per member until it lands.

// Cuts (or heals) the link between the controller and sequencing replica `index`.
void PartitionFromController(ErwinCluster& cluster, uint32_t index, bool cut) {
  cluster.network().SetPartitioned(cluster.controller()->node_id(),
                                   cluster.seq_replica(index).node_id(), cut);
}

TEST(Recovery, RegistryPushRetriesAcrossTransientPartition) {
  ErwinCluster cluster(Options());
  Controller* ctrl = cluster.controller();
  const uint64_t old_epoch = cluster.seq_replica(2).log_epoch();
  PartitionFromController(cluster, 2, true);
  bool done = false;
  ctrl->CreateLog("tenant", 0, [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    done = true;
  });
  cluster.RunFor(20 * kMs);
  EXPECT_FALSE(done);  // the cut-off replica has not adopted the table yet
  EXPECT_EQ(cluster.seq_replica(2).log_epoch(), old_epoch);
  PartitionFromController(cluster, 2, false);
  cluster.RunFor(50 * kMs);
  EXPECT_TRUE(done);
  for (uint32_t i = 0; i < cluster.num_seq_replicas(); ++i) {
    EXPECT_EQ(cluster.seq_replica(i).log_epoch(), ctrl->log_epoch()) << "replica " << i;
  }
}

TEST(Recovery, RegistryPushGivesUpAfterAttemptBudget) {
  ErwinCluster cluster(Options());
  Controller* ctrl = cluster.controller();
  const uint64_t old_epoch = cluster.seq_replica(2).log_epoch();
  PartitionFromController(cluster, 2, true);
  bool done = false;
  ctrl->CreateLog("tenant", 0, [&](Status) { done = true; });
  cluster.RunFor(150 * kMs);  // well past the 10-attempt budget
  EXPECT_TRUE(done);          // the push settles instead of hanging on the cut replica
  PartitionFromController(cluster, 2, false);
  cluster.RunFor(50 * kMs);
  EXPECT_EQ(cluster.seq_replica(0).log_epoch(), ctrl->log_epoch());
  EXPECT_EQ(cluster.seq_replica(1).log_epoch(), ctrl->log_epoch());
  // Nothing re-pushes after the budget ran out: the cut-off replica keeps the old table.
  EXPECT_EQ(cluster.seq_replica(2).log_epoch(), old_epoch);
  EXPECT_LT(old_epoch, ctrl->log_epoch());
}

TEST(Recovery, LostStartViewIsRetriedUntilAdopted) {
  ErwinCluster cluster(Options());
  Controller* ctrl = cluster.controller();
  auto client = cluster.MakeMClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "before"));
  cluster.CrashSeqReplica(2);
  // Cut replica 1 off from the controller once the flush is done (so it is sealed and
  // part of the new config) but before the new view is persisted, so its StartView
  // attempts time out until the link heals.
  const SimTime deadline = cluster.loop().Now() + 2 * kSec;
  while (ctrl->last_timing().flushed_at == 0 && cluster.loop().Now() < deadline) {
    cluster.RunFor(100 * kUs);
  }
  ASSERT_NE(ctrl->last_timing().flushed_at, 0u);
  ASSERT_EQ(ctrl->last_timing().view_written_at, 0u);
  PartitionFromController(cluster, 1, true);
  cluster.RunFor(15 * kMs);
  EXPECT_NE(ctrl->last_timing().view_written_at, 0u);
  EXPECT_FALSE(ctrl->last_timing().complete);
  EXPECT_EQ(cluster.seq_replica(1).view(), 0u);
  PartitionFromController(cluster, 1, false);
  ASSERT_TRUE(AwaitReconfig(cluster));
  EXPECT_EQ(ctrl->view(), 1u);
  EXPECT_EQ(cluster.seq_replica(1).view(), 1u);
  EXPECT_EQ(cluster.seq_replica(0).view(), 1u);
  const auto& config = ctrl->current_config();
  EXPECT_NE(std::find(config.begin(), config.end(), cluster.seq_replica(1).node_id()),
            config.end());
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "after"));
}

}  // namespace
}  // namespace lazylog
