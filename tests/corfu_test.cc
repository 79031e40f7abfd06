// Corfu baseline tests: eager binding via sequencer + chain writes, write-once
// semantics, committed-tail tracking, reads from the chain tail.
#include <gtest/gtest.h>

#include "src/baselines/corfu/corfu.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

TEST(Corfu, AppendAtReturnsDensePositions) {
  SimParams params;
  CorfuCluster cluster(2, 3, params);
  auto client = cluster.MakeClient();
  std::vector<LogPos> positions;
  for (int i = 0; i < 6; ++i) {
    bool done = false;
    client->AppendAt("r" + std::to_string(i), [&](Status s, LogPos pos) {
      ASSERT_TRUE(s.ok());
      positions.push_back(pos);
      done = true;
    });
    RunUntilDone(cluster.loop(), done);
  }
  for (size_t i = 0; i < positions.size(); ++i) {
    EXPECT_EQ(positions[i], i);  // eagerly bound, dense
  }
}

TEST(Corfu, ReadReturnsChainTailCopy) {
  SimParams params;
  CorfuCluster cluster(1, 3, params);
  auto client = cluster.MakeClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "hello"));
  auto records = ReadSyncly(cluster.loop(), *client, 0, 1);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].record.payload, "hello");
}

TEST(Corfu, CheckTailTracksCompletedWrites) {
  SimParams params;
  CorfuCluster cluster(1, 2, params);
  auto client = cluster.MakeClient();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "x"));
  }
  cluster.RunFor(1 * kMs);  // tail report is async
  TailResult tail = TailSyncly(cluster.loop(), *client);
  ASSERT_TRUE(tail.status.ok());
  EXPECT_EQ(tail.durable, 4u);
  EXPECT_EQ(tail.stable, 4u);  // eager ordering: stable == durable
}

// CheckTail fills the tail cache: CachedTail answers (and counts a hit) until
// kTailCacheTtlNs has passed, then refuses.
TEST(Corfu, CachedTailHitsAfterCheckTailUntilTtl) {
  SimParams params;
  CorfuCluster cluster(1, 2, params);
  auto client = cluster.MakeClient();
  LogPos durable = 0, stable = 0;
  EXPECT_FALSE(client->CachedTail(&durable, &stable));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "x"));
  }
  cluster.RunFor(1 * kMs);  // tail report is async
  ASSERT_TRUE(TailSyncly(cluster.loop(), *client).status.ok());
  ASSERT_TRUE(client->CachedTail(&durable, &stable));
  EXPECT_EQ(durable, 2u);
  EXPECT_EQ(stable, 2u);
  EXPECT_EQ(client->ReadPathSnapshot().counters.tail_cache_hits, 1u);
  cluster.RunFor(kTailCacheTtlNs + 1 * kUs);
  EXPECT_FALSE(client->CachedTail(&durable, &stable));
  EXPECT_EQ(client->ReadPathSnapshot().counters.tail_cache_hits, 1u);
}

// Corfu has no index tier, so a named log is served by the scan fallbacks:
// CheckTailOfLog counts the log's stable records, ReadLog labels them with ranks.
TEST(Corfu, NamedLogScanCountsAndRanksRecords) {
  SimParams params;
  CorfuCluster cluster(2, 2, params);
  auto client = cluster.MakeClient();
  LogHandle named = client->handle(7, "seven");
  ASSERT_TRUE(AppendSyncly(cluster.loop(), client->log(), "d0"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), named, "n0"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), client->log(), "d1"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), named, "n1"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), named, "n2"));
  cluster.RunFor(1 * kMs);

  TailResult tail = TailSyncly(cluster.loop(), named);
  ASSERT_TRUE(tail.status.ok()) << tail.status.ToString();
  EXPECT_EQ(tail.durable, 3u);
  EXPECT_EQ(tail.stable, 3u);

  auto recs = ReadSyncly(cluster.loop(), named, 1, 5);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), 2u);
  EXPECT_EQ((*recs)[0].pos, 1u);
  EXPECT_EQ((*recs)[0].record.payload, "n1");
  EXPECT_EQ((*recs)[1].pos, 2u);
  EXPECT_EQ((*recs)[1].record.payload, "n2");
}

TEST(Corfu, ReadOfUnwrittenPositionWaitsForWrite) {
  SimParams params;
  CorfuCluster cluster(1, 2, params);
  auto client = cluster.MakeClient();
  bool read_done = false;
  client->log().Read(0, 1, [&](Status s, std::vector<PositionedRecord> recs) {
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].record.payload, "eventually");
    read_done = true;
  });
  cluster.RunFor(5 * kMs);
  EXPECT_FALSE(read_done);
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "eventually"));
  cluster.RunFor(5 * kMs);
  EXPECT_TRUE(read_done);
}

TEST(Corfu, StripesAcrossShards) {
  SimParams params;
  CorfuCluster cluster(3, 2, params);
  auto client = cluster.MakeClient();
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "s" + std::to_string(i)));
  }
  auto records = ReadSyncly(cluster.loop(), *client, 0, 9);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 9u);
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ((*records)[i].pos, i);
    EXPECT_EQ((*records)[i].record.payload, "s" + std::to_string(i));
  }
}

TEST(Corfu, ChainWriteCostsMoreRttsThanErwin) {
  // The architectural claim behind Fig 6: 3-replica Corfu appends take
  // 1 (sequencer) + 3 (chain) round trips; latency reflects that.
  SimParams params;
  CorfuCluster cluster(1, 3, params);
  auto client = cluster.MakeClient();
  bool done = false;
  SimTime start = cluster.loop().Now();
  SimTime end = 0;
  client->log().Append(std::string(4096, 'x'), [&](Status s) {
    ASSERT_TRUE(s.ok());
    end = cluster.loop().Now();
    done = true;
  });
  RunUntilDone(cluster.loop(), done);
  const uint64_t latency = end - start;
  // At least 4 round trips of propagation.
  EXPECT_GT(latency, 8 * params.net.propagation_ns);
}

}  // namespace
}  // namespace lazylog
