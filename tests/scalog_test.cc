// Scalog baseline tests: Paxos acceptor/proposer behaviour, cut formation and commit,
// the eager-ack pipeline (appends acknowledged only after the committed cut covers
// them), reads through the location history, and checkTail.
#include <gtest/gtest.h>

#include "src/baselines/scalog/paxos.h"
#include "src/baselines/scalog/scalog.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

// --- Paxos ---------------------------------------------------------------------------

class PaxosTest : public ::testing::Test {
 protected:
  PaxosTest() : net_(&loop_, NetworkParams{}, 1), proposer_ep_(&net_) {
    for (int i = 0; i < 3; ++i) {
      acceptors_.push_back(std::make_unique<PaxosAcceptor>(&net_));
      acceptor_ids_.push_back(acceptors_.back()->node_id());
    }
  }

  EventLoop loop_;
  Network net_;
  RpcEndpoint proposer_ep_;
  std::vector<std::unique_ptr<PaxosAcceptor>> acceptors_;
  std::vector<NodeId> acceptor_ids_;
};

TEST_F(PaxosTest, ProposeCommitsWithMajority) {
  PaxosProposer proposer(&proposer_ep_, acceptor_ids_, 1, kSec);
  Status result = Status::Internal("unset");
  proposer.Propose(0, "cut-1", [&](Status s) { result = s; });
  loop_.RunUntilIdle();
  EXPECT_TRUE(result.ok());
  for (auto& a : acceptors_) {
    EXPECT_EQ(a->accepted_slots(), 1u);
  }
}

TEST_F(PaxosTest, ProposeCommitsDespiteMinorityCrash) {
  net_.Crash(acceptor_ids_[2]);
  PaxosProposer proposer(&proposer_ep_, acceptor_ids_, 1, 10 * kMs);
  Status result = Status::Internal("unset");
  proposer.Propose(0, "v", [&](Status s) { result = s; });
  loop_.RunUntilIdle();
  EXPECT_TRUE(result.ok());
}

TEST_F(PaxosTest, ProposeFailsWithoutMajority) {
  net_.Crash(acceptor_ids_[1]);
  net_.Crash(acceptor_ids_[2]);
  PaxosProposer proposer(&proposer_ep_, acceptor_ids_, 1, 10 * kMs);
  Status result;
  proposer.Propose(0, "v", [&](Status s) { result = s; });
  loop_.RunUntilIdle();
  EXPECT_FALSE(result.ok());
}

TEST_F(PaxosTest, PrepareRecoversAcceptedValue) {
  PaxosProposer old_leader(&proposer_ep_, acceptor_ids_, 1, kSec);
  old_leader.Propose(3, "old-cut", [](Status) {});
  loop_.RunUntilIdle();
  // New leader with a higher ballot must learn the accepted value for slot 3.
  RpcEndpoint ep2(&net_);
  PaxosProposer new_leader(&ep2, acceptor_ids_, 2, kSec);
  bool had_value = false;
  std::string value;
  new_leader.Prepare(3, [&](Status s, bool hv, std::string v) {
    ASSERT_TRUE(s.ok());
    had_value = hv;
    value = std::move(v);
  });
  loop_.RunUntilIdle();
  EXPECT_TRUE(had_value);
  EXPECT_EQ(value, "old-cut");
}

TEST_F(PaxosTest, PrepareOnEmptySlotReturnsNoValue) {
  RpcEndpoint ep2(&net_);
  PaxosProposer leader(&ep2, acceptor_ids_, 5, kSec);
  bool had_value = true;
  leader.Prepare(7, [&](Status s, bool hv, std::string) {
    ASSERT_TRUE(s.ok());
    had_value = hv;
  });
  loop_.RunUntilIdle();
  EXPECT_FALSE(had_value);
}

TEST_F(PaxosTest, LowerBallotAcceptRejectedAfterPromise) {
  RpcEndpoint ep2(&net_);
  PaxosProposer high(&ep2, acceptor_ids_, 10, kSec);
  high.Prepare(0, [](Status, bool, std::string) {});
  loop_.RunUntilIdle();
  PaxosProposer low(&proposer_ep_, acceptor_ids_, 2, 10 * kMs);
  Status result;
  low.Propose(0, "stale", [&](Status s) { result = s; });
  loop_.RunUntilIdle();
  EXPECT_FALSE(result.ok());
}

// --- Scalog end to end ----------------------------------------------------------------

TEST(Scalog, AppendAckedAfterCutCommit) {
  SimParams params;
  ScalogCluster cluster(2, params);
  auto client = cluster.MakeClient();
  bool acked = false;
  SimTime ack_time = 0;
  const SimTime start = cluster.loop().Now();
  client->log().Append(std::string(1024, 'x'), [&](Status s) {
    acked = s.ok();
    ack_time = cluster.loop().Now();
  });
  cluster.RunFor(50 * kMs);
  ASSERT_TRUE(acked);
  // The ack must come after local durable replication + interleave batching + Paxos:
  // well above the raw RTT.
  EXPECT_GT(ack_time - start, 500 * kUs);
  EXPECT_GE(cluster.ordering().cuts_committed(), 1u);
  EXPECT_EQ(cluster.ordering().total_ordered(), 1u);
}

TEST(Scalog, TotalOrderAssignsDensePositions) {
  SimParams params;
  ScalogCluster cluster(3, params);
  auto client = cluster.MakeClient();
  int acks = 0;
  for (int i = 0; i < 30; ++i) {
    client->log().Append("rec-" + std::to_string(i), [&](Status s) { acks += s.ok() ? 1 : 0; });
  }
  cluster.RunFor(100 * kMs);
  EXPECT_EQ(acks, 30);
  EXPECT_EQ(cluster.ordering().total_ordered(), 30u);
  // Every position must be locatable.
  for (LogPos p = 0; p < 30; ++p) {
    ShardId shard;
    uint64_t local;
    EXPECT_TRUE(cluster.ordering().Locate(p, &shard, &local)) << p;
  }
}

TEST(Scalog, ReadReturnsAppendedRecord) {
  SimParams params;
  ScalogCluster cluster(2, params);
  auto client = cluster.MakeClient();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "payload-" + std::to_string(i)));
  }
  auto records = ReadSyncly(cluster.loop(), *client, 0, 4, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*records)[i].pos, i);
    EXPECT_EQ((*records)[i].record.payload, "payload-" + std::to_string(i));
  }
}

TEST(Scalog, CheckTailCountsOrdered) {
  SimParams params;
  ScalogCluster cluster(1, params);
  auto client = cluster.MakeClient();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "x"));
  }
  TailResult tail = TailSyncly(cluster.loop(), *client);
  ASSERT_TRUE(tail.status.ok());
  EXPECT_EQ(tail.durable, 5u);
}

// CheckTail fills the tail cache: CachedTail answers (and counts a hit) until
// tail_cache_ttl_ns has passed, then refuses.
TEST(Scalog, CachedTailHitsAfterCheckTailUntilTtl) {
  SimParams params;
  ScalogCluster cluster(1, params);
  auto client = cluster.MakeClient();
  LogPos durable = 0, stable = 0;
  EXPECT_FALSE(client->CachedTail(&durable, &stable));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "x"));
  }
  ASSERT_TRUE(TailSyncly(cluster.loop(), *client).status.ok());
  ASSERT_TRUE(client->CachedTail(&durable, &stable));
  EXPECT_EQ(durable, 3u);
  EXPECT_EQ(stable, 3u);
  EXPECT_EQ(client->ReadPathSnapshot().counters.tail_cache_hits, 1u);
  cluster.RunFor(params.client_read.tail_cache_ttl_ns + 1 * kUs);
  EXPECT_FALSE(client->CachedTail(&durable, &stable));
  EXPECT_EQ(client->ReadPathSnapshot().counters.tail_cache_hits, 1u);
}

TEST(Scalog, CutsRespectSlowestReplica) {
  // The global cut uses the min across a shard's replicas: until the backup persists,
  // the record is not ordered and the append not acknowledged.
  SimParams params;
  ScalogCluster cluster(1, params);
  auto client = cluster.MakeClient();
  bool acked = false;
  client->log().Append("solo", [&](Status) { acked = true; });
  cluster.RunFor(300 * kUs);  // less than a disk write; backup cannot have persisted
  EXPECT_FALSE(acked);
  cluster.RunFor(50 * kMs);
  EXPECT_TRUE(acked);
}

}  // namespace
}  // namespace lazylog
