// Erwin-st end-to-end tests: data/metadata split, the §5.4 client-failure protocol
// through the public client, position-map caching, runtime shard addition, and the
// fast/slow read paths.
#include <gtest/gtest.h>

#include "src/lazylog/erwin_cluster.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

ErwinClusterOptions StOptions(uint32_t shards = 2) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kSt;
  opt.num_shards = shards;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  return opt;
}

TEST(ErwinSt, DataGoesToChosenShardMetadataEverywhere) {
  ErwinCluster cluster(StOptions(3));
  auto client = cluster.MakeStClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, std::string(2048, 'd')));
  // Before ordering: one shard holds the data in its unordered pool; all sequencing
  // replicas hold the 32B metadata.
  uint64_t pools = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    for (uint32_t r = 0; r < 2; ++r) {
      pools += cluster.shard(s, r).unordered_pool_size();
    }
  }
  EXPECT_EQ(pools, 2u);  // both replicas of exactly one shard
  for (uint32_t i = 0; i < cluster.num_seq_replicas(); ++i) {
    EXPECT_GE(cluster.seq_replica(i).unordered_size() + cluster.seq_replica(i).ordered_gp(),
              1u);
  }
}

TEST(ErwinSt, RoundRobinSpreadsShards) {
  ErwinCluster cluster(StOptions(3));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "rr"));
  }
  cluster.RunFor(100 * kMs);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.shard(s, 0).ordered_records(), 3u) << "shard " << s;
  }
}

TEST(ErwinSt, MetadataOnlyAppendResolvesToNoOpVisibleToReaders) {
  // §5.4: client crashes after the metadata write. The position must become a no-op
  // that readers can skip, and it must not block subsequent records.
  ErwinCluster cluster(StOptions(2));
  auto client = cluster.MakeStClient();
  bool meta_acked = false;
  client->AppendMetadataOnly(/*shard=*/0, [&](Status s) { meta_acked = s.ok(); });
  cluster.RunFor(1 * kMs);
  ASSERT_TRUE(meta_acked);
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "after-crash"));
  cluster.RunFor(3 * kStDataTimeoutNs + 100 * kMs);
  auto records = ReadSyncly(cluster.loop(), *client, 0, 2, 10 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_TRUE((*records)[0].record.no_op);
  EXPECT_FALSE((*records)[1].record.no_op);
  EXPECT_EQ((*records)[1].record.payload, "after-crash");
}

TEST(ErwinSt, DataOnlyAppendIsScrubbedAsOrphan) {
  // §5.4: client crashes after the data write but before the metadata write. The data
  // is an orphan and is eventually garbage-collected.
  ErwinCluster cluster(StOptions(1));
  auto client = cluster.MakeStClient();
  bool data_acked = false;
  client->AppendDataOnly(0, "orphan-data", [&](Status s) { data_acked = s.ok(); });
  cluster.RunFor(1 * kMs);
  ASSERT_TRUE(data_acked);
  EXPECT_EQ(cluster.shard(0, 0).unordered_pool_size(), 1u);
  cluster.RunFor(kStOrphanScrubAgeNs + 200 * kMs);
  EXPECT_EQ(cluster.shard(0, 0).unordered_pool_size(), 0u);
  // The log itself never saw it.
  TailResult tail = TailSyncly(cluster.loop(), *client);
  EXPECT_EQ(tail.durable, 0u);
}

TEST(ErwinSt, PosMapCacheAmortizesLookups) {
  ErwinCluster cluster(StOptions(2));
  auto writer = cluster.MakeStClient();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "m" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  auto reader = cluster.MakeStClient();
  // 40 single-record reads; the bulk fetch + cache should need only one mapping RPC.
  for (int i = 0; i < 40; ++i) {
    auto r = ReadSyncly(cluster.loop(), *reader, i, 1, kSec);
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->size(), 1u);
    EXPECT_EQ((*r)[0].record.payload, "m" + std::to_string(i));
  }
  EXPECT_EQ(reader->posmap_fetches(), 1u);
}

TEST(ErwinSt, AddShardServesNewAppends) {
  ErwinCluster cluster(StOptions(2));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "pre-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  std::vector<NodeId> replicas = cluster.AddShard();
  client->AddShard(replicas);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "post-" + std::to_string(i)));
  }
  cluster.RunFor(200 * kMs);
  // The new shard received records.
  EXPECT_GT(cluster.shard(2, 0).ordered_records(), 0u);
  // And the whole log reads back correctly across old + new shards.
  auto records = ReadSyncly(cluster.loop(), *client, 0, 10, 10 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 10u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*records)[i].record.payload, "pre-" + std::to_string(i));
  }
  for (int i = 4; i < 10; ++i) {
    EXPECT_EQ((*records)[i].record.payload, "post-" + std::to_string(i - 4));
  }
}

TEST(ErwinSt, SlowPathReadWaitsForPosMap) {
  ErwinCluster cluster(StOptions(2));
  auto client = cluster.MakeStClient();
  // Issue a read for a position that is not even appended yet.
  bool done = false;
  client->log().Read(0, 1, [&](Status s, std::vector<PositionedRecord> recs) {
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].record.payload, "arrives-later");
    done = true;
  });
  cluster.RunFor(5 * kMs);
  EXPECT_FALSE(done);
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "arrives-later"));
  RunUntilDone(cluster.loop(), done, 10 * kSec);
  EXPECT_TRUE(done);
}

TEST(ErwinSt, TrimRemovesPrefixAcrossShards) {
  ErwinCluster cluster(StOptions(2));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "t" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  ASSERT_TRUE(TrimSyncly(cluster.loop(), *client, 4).ok());
  // Reads above the trim point still work.
  auto records = ReadSyncly(cluster.loop(), *client, 4, 4, 10 * kSec);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), 4u);
}

}  // namespace
}  // namespace lazylog
