// Shard primary failover tests: controller-driven promotion of the most-complete
// backup with ordered handoff of the acked-but-unordered Erwin-st tail. The safety
// bar throughout: every append acked before the crash is readable afterwards, at its
// original global position if it was already ordered, with no duplicate bindings.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/lazylog/erwin_cluster.h"
#include "src/lazylog/read_path.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

ErwinClusterOptions Options(ErwinMode mode, uint32_t shards = 2, uint32_t repl = 3) {
  ErwinClusterOptions opt;
  opt.mode = mode;
  opt.num_shards = shards;
  opt.shard_replication = repl;
  opt.with_control_plane = true;
  return opt;
}

// Reads [0, n) with a fresh client and returns payload -> position. Fails the test on
// a duplicate payload (duplicate binding) or a failed read.
std::map<std::string, LogPos> ReadAll(ErwinCluster& cluster, uint64_t n) {
  auto fresh = cluster.MakeClient();
  auto records = ReadSyncly(cluster.loop(), *fresh, 0, n, 10 * kSec);
  std::map<std::string, LogPos> by_payload;
  if (!records.has_value()) {
    ADD_FAILURE() << "post-failover read of [0," << n << ") failed";
    return by_payload;
  }
  EXPECT_EQ(records->size(), n);
  for (const auto& rec : *records) {
    const std::string payload = rec.record.payload.ToString();
    EXPECT_EQ(by_payload.count(payload), 0u) << "duplicate binding for " << payload;
    by_payload[payload] = rec.pos;
  }
  return by_payload;
}

TEST(PrimaryFailover, CrashMidOrderingWindowLosesNoAckedAppend) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  // Phase 1: appends that the orderer fully binds before the crash.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "ordered-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  const std::map<std::string, LogPos> before = ReadAll(cluster, 12);
  ASSERT_EQ(before.size(), 12u);

  // Phase 2: appends acked (data on all shard replicas, metadata on all sequencing
  // replicas) but crash the primary immediately, mid-ordering-window, so part of the
  // tail is unordered on the backups.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "tail-" + std::to_string(i)));
  }
  const NodeId old_primary = cluster.CrashShardPrimary(0);
  cluster.RunFor(500 * kMs);

  ASSERT_NE(cluster.controller(), nullptr);
  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  EXPECT_NE(cluster.controller()->shards()[0][0], old_primary);

  // Every acked append is readable; the pre-crash ordered prefix kept its positions.
  const std::map<std::string, LogPos> after = ReadAll(cluster, 18);
  ASSERT_EQ(after.size(), 18u);
  for (const auto& [payload, pos] : before) {
    ASSERT_EQ(after.count(payload), 1u) << payload << " lost across promotion";
    EXPECT_EQ(after.at(payload), pos) << payload << " moved across promotion";
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(after.count("tail-" + std::to_string(i)), 1u);
  }
  // The promoted backup flipped roles and reports the promotion in its counters.
  const ShardServer& promoted = cluster.shard(0, 0);
  EXPECT_TRUE(promoted.is_primary());
  EXPECT_EQ(promoted.stats().promotions, 1u);
  EXPECT_GT(promoted.stats().seal_to_open_ns, 0u);
}

TEST(PrimaryFailover, CrashDuringIndexDeltaPullReroutesSelectiveReads) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  ASSERT_GE(cluster.num_index_nodes(), 1u);
  auto client = cluster.MakeStClient();
  const StreamTag tag = 7;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, tag, "idx-" + std::to_string(i)));
  }
  // Let the index tier pull a first delta, then crash the primary between pulls: the
  // node feeding the index disappears mid-stream.
  cluster.RunFor(20 * kMs);
  cluster.CrashShardPrimary(0);
  cluster.RunFor(500 * kMs);

  // The stale-view client's selective read self-heals: the index path re-resolves
  // (or degrades to the scan fallback) instead of erroring until the next append.
  auto result = ReadNextSyncly(cluster.loop(), *client, tag, 0, 16, 10 * kSec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.records.size(), 8u);

  // The controller re-pointed the index feed at the promoted primary: records appended
  // after the failover surface through the same tag.
  auto writer = cluster.MakeStClient();
  for (int i = 8; i < 12; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, tag, "idx-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  auto fresh = cluster.MakeStClient();
  auto post = ReadNextSyncly(cluster.loop(), *fresh, tag, 0, 16, 10 * kSec);
  ASSERT_TRUE(post.status.ok()) << post.status.ToString();
  EXPECT_EQ(post.records.size(), 12u);
  std::set<std::string> payloads;
  for (const auto& rec : post.records) {
    payloads.insert(rec.record.payload.ToString());
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(payloads.count("idx-" + std::to_string(i)), 1u);
  }
}

TEST(PrimaryFailover, ConcurrentSeqLeaderAndShardPrimaryCrash) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "pre-" + std::to_string(i)));
  }
  // Both failures in the same instant: the controller must run the sequencing view
  // change (whose shard fence must not stall on the dead shard primary) and the shard
  // promotion (whose seq-side handoff must reach the *new* leader) concurrently.
  cluster.CrashSeqReplica(0);
  cluster.CrashShardPrimary(0);
  cluster.RunFor(2 * kSec);

  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  const std::map<std::string, LogPos> after = ReadAll(cluster, 10);
  ASSERT_EQ(after.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(after.count("pre-" + std::to_string(i)), 1u);
  }
  // The log keeps accepting appends under the new seq view + shard order.
  auto writer = cluster.MakeStClient();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "post-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  const std::map<std::string, LogPos> final_set = ReadAll(cluster, 15);
  EXPECT_EQ(final_set.size(), 15u);
}

TEST(PrimaryFailover, PromotionQueuesBehindInFlightBackupReplacement) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "r-" + std::to_string(i)));
  }
  cluster.RunFor(50 * kMs);
  // Start a backup replacement (async through the controller: state copy over RPC,
  // config write) and crash the primary while it is still in flight. The controller
  // serializes per-shard ops, so the promotion queues behind the replacement instead
  // of interleaving with it. The replacement itself may legitimately fail (its copy
  // source — the primary — just died); what must hold is that the promotion still
  // completes and no acked append is lost.
  cluster.ReplaceShardReplica(0, 2);
  const NodeId crashed = cluster.CrashShardPrimary(0);
  cluster.RunFor(2 * kSec);

  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  // The committed order has a live primary that is not the crashed node.
  const auto& order = cluster.controller()->shards()[0];
  ASSERT_GE(order.size(), 1u);
  EXPECT_NE(order[0], crashed);
  const std::map<std::string, LogPos> after = ReadAll(cluster, 8);
  ASSERT_EQ(after.size(), 8u);
  auto writer = cluster.MakeStClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "after-both"));
  cluster.RunFor(100 * kMs);
  EXPECT_EQ(ReadAll(cluster, 9).size(), 9u);
}

TEST(PrimaryFailover, IsolatedZombiePrimaryIsFencedOut) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "z-" + std::to_string(i)));
  }
  // Isolate rather than crash: the old primary keeps running, firing no-op timers and
  // replication attempts into the partition. Promotion fencing (promo epoch + sender
  // identity checks) must render all of it harmless.
  const NodeId zombie = cluster.IsolateShardPrimary(0);
  cluster.RunFor(1 * kSec);

  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  EXPECT_NE(cluster.controller()->shards()[0][0], zombie);
  const std::map<std::string, LogPos> after = ReadAll(cluster, 10);
  ASSERT_EQ(after.size(), 10u);
  auto writer = cluster.MakeStClient();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "post-z-" + std::to_string(i)));
  }
  cluster.RunFor(200 * kMs);
  EXPECT_EQ(ReadAll(cluster, 14).size(), 14u);
}

TEST(PrimaryFailover, StaleClientReadsNoHoleFromZombiePrimary) {
  ErwinClusterOptions opt = Options(ErwinMode::kM);
  opt.params.client_read.read_routing_mode = 0;  // every stable read goes to the primary
  ErwinCluster cluster(opt);
  auto writer = cluster.MakeMClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "pre-" + std::to_string(i)));
  }
  cluster.RunFor(20 * kMs);
  // This reader keeps the pre-promotion shard config: shard 0's primary is the zombie.
  auto reader = cluster.MakeMClient();
  ASSERT_EQ(ReadSyncly(cluster.loop(), *reader, 0, 10, kSec)->size(), 10u);
  cluster.IsolateShardPrimary(0);
  cluster.RunFor(500 * kMs);
  ASSERT_EQ(cluster.controller()->shard_promotions(), 1u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "post-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  // The reader learns the new stable tail, then reads a range whose shard-0 half the
  // zombie (still reachable from clients, stable-gp frozen at 10) can only clip.
  const TailResult tail = TailSyncly(cluster.loop(), *reader);
  ASSERT_TRUE(tail.status.ok());
  ASSERT_EQ(tail.stable, 20u);
  auto records = ReadSyncly(cluster.loop(), *reader, 0, 20, 10 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 20u);
  for (LogPos p = 0; p < 20; ++p) {
    EXPECT_EQ((*records)[p].pos, p);
  }
}

TEST(PrimaryFailover, MModePromotionKeepsLogAvailable) {
  ErwinCluster cluster(Options(ErwinMode::kM));
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "m-" + std::to_string(i)));
  }
  cluster.CrashShardPrimary(1);
  cluster.RunFor(500 * kMs);

  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  const std::map<std::string, LogPos> after = ReadAll(cluster, 10);
  ASSERT_EQ(after.size(), 10u);
  // Stale-view clients re-resolve on their own (append and read paths).
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "m-post-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  EXPECT_EQ(ReadAll(cluster, 14).size(), 14u);
}

TEST(PrimaryFailover, PromotionAloneAdvancesOrderingToTheResetPoint) {
  ErwinCluster cluster(Options(ErwinMode::kM));
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "m-" + std::to_string(i)));
  }
  cluster.RunFor(20 * kMs);
  // Position 10 lands on shard 0. Its primary applies the window and replicates it,
  // then crashes before its disk write lets it ack the orderer. The promoted backup
  // holds the window, so the orderer's cursor resets past it and has nothing left to
  // send. With no later append, no window ack would ever advance ordering, so the
  // failover itself must.
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "m-10"));
  cluster.RunFor(300 * kUs);
  cluster.CrashShardPrimary(0);
  cluster.RunFor(500 * kMs);
  ASSERT_EQ(cluster.controller()->shard_promotions(), 1u);
  const TailResult tail = TailSyncly(cluster.loop(), *client);
  ASSERT_TRUE(tail.status.ok());
  EXPECT_EQ(tail.stable, 11u);
  EXPECT_EQ(ReadAll(cluster, 11).size(), 11u);
}

TEST(PrimaryFailover, RoutedReadsSurviveBackupPromotionMidFlight) {
  // Load-aware routing sends stable reads to backups; here the backup serving them is
  // promoted mid-stream. Reads issued across the whole failover window — before the
  // crash, during detection/seal/handoff, and after the role flip — must all return
  // the same stable prefix: a promoted backup keeps its stable bindings, and a routed
  // read that lands on the dead primary propagates an error that the client's retry
  // ladder absorbs by re-resolving and retrying.
  ErwinCluster cluster(Options(ErwinMode::kSt));
  ASSERT_EQ(cluster.params().client_read.read_routing_mode, 2u);
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 16;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "rr-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  const std::map<std::string, LogPos> before = ReadAll(cluster, kN);
  ASSERT_EQ(before.size(), kN);

  cluster.CrashShardPrimary(0);
  // During the detection window the old primary is dead but no promotion has been
  // committed yet: the stable prefix must stay readable off the surviving backups.
  auto mid = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
  ASSERT_TRUE(mid.has_value()) << "stable prefix unreadable during the failover window";
  ASSERT_EQ(mid->size(), kN);
  for (const auto& rec : *mid) {
    ASSERT_EQ(before.count(rec.record.payload.ToString()), 1u);
    EXPECT_EQ(before.at(rec.record.payload.ToString()), rec.pos)
        << "binding moved mid-failover";
  }

  cluster.RunFor(2 * kSec);
  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  // The promoted ex-backup now serves as primary; the same client (stale or refreshed)
  // still reads the identical bindings, and new appends land after them.
  const std::map<std::string, LogPos> after = ReadAll(cluster, kN);
  ASSERT_EQ(after.size(), kN);
  for (const auto& [payload, pos] : before) {
    ASSERT_EQ(after.count(payload), 1u) << payload;
    EXPECT_EQ(after.at(payload), pos) << payload;
  }
  auto writer = cluster.MakeStClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "post-promo"));
  cluster.RunFor(100 * kMs);
  EXPECT_EQ(ReadAll(cluster, kN + 1).size(), kN + 1);
}

TEST(PrimaryFailover, StaleViewMultiRangeReadReResolvesShardConfig) {
  // The coalesced multi-range RPC against a replaced replica must fail through to the
  // client's retry ladder (not be silently absorbed), so the stale client refreshes
  // "/shards/config" and finishes the read against the new membership.
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 12;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "sv-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  auto warm = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->size(), kN);
  ASSERT_EQ(client->shard_epoch(), 1u);

  // Replace every backup of both shards, so whichever backup the load-aware router
  // picks, the stale client's next multi-range read hits a dead node.
  for (uint32_t shard = 0; shard < cluster.num_shards(); ++shard) {
    for (uint32_t replica = 1; replica < cluster.shard_replication(); ++replica) {
      cluster.ReplaceShardReplica(shard, replica);
      cluster.RunFor(50 * kMs);
    }
  }
  ASSERT_EQ(cluster.controller()->shard_epoch(), 5u);

  const uint64_t backup_before = client->ReadPathSnapshot().counters.backup_routed;
  auto after = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
  ASSERT_TRUE(after.has_value()) << "stale-view multi-range read never recovered";
  ASSERT_EQ(after->size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ((*after)[i].pos, i);
  }
  EXPECT_GT(client->ReadPathSnapshot().counters.backup_routed, backup_before)
      << "no read was routed to a (replaced) backup";
  EXPECT_EQ(client->shard_epoch(), 5u) << "client never re-resolved the shard config";
}

TEST(PrimaryFailover, ControllerSnapshotExportsFailoverCounters) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "c-" + std::to_string(i)));
  }
  cluster.CrashShardPrimary(0);
  cluster.RunFor(500 * kMs);

  const ControllerStatsSnapshot snap = cluster.controller()->StatsSnapshot();
  EXPECT_EQ(snap.promotions, 1u);
  EXPECT_GT(snap.last_seal_to_open_ns, 0u);
  EXPECT_GE(snap.last_detect_to_open_ns, snap.last_seal_to_open_ns);
  // The timing breakdown is internally ordered: detect <= seal <= handoff <= open.
  const ShardFailoverTiming& t = cluster.controller()->last_failover_timing();
  EXPECT_TRUE(t.complete);
  EXPECT_LE(t.detected_at, t.sealed_at);
  EXPECT_LE(t.sealed_at, t.handoff_at);
  EXPECT_LE(t.handoff_at, t.opened_at);
  // Counters surface through the generic Fields() dump used by the benches.
  bool saw_promotions = false;
  for (const auto& [name, value] : snap.Fields()) {
    if (name == "promotions") {
      saw_promotions = true;
      EXPECT_EQ(value, 1.0);
    }
  }
  EXPECT_TRUE(saw_promotions);
}

}  // namespace
}  // namespace lazylog
