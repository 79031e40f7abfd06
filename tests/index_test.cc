// Stream index tier tests: shard-side tag journals feeding aggregator index nodes,
// ReadNext(tag, from) selective reads on both Erwin clients, scan fallback when the
// tier is absent or crashed, epoch fencing, and trim pruning.
#include <gtest/gtest.h>

#include <set>

#include "src/index/index_node.h"
#include "src/lazylog/erwin_cluster.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

// Appends `per_tag` records into each of `tags` round-robin (tag order interleaved in
// the log) and returns the payload sequence per tag.
template <typename Client>
std::vector<std::vector<std::string>> AppendStreams(ErwinCluster& cluster, Client& client,
                                                    const std::vector<StreamTag>& tags,
                                                    int per_tag) {
  std::vector<std::vector<std::string>> payloads(tags.size());
  for (int i = 0; i < per_tag; ++i) {
    for (size_t t = 0; t < tags.size(); ++t) {
      std::string payload = "s" + std::to_string(tags[t]) + "-" + std::to_string(i);
      EXPECT_TRUE(AppendSyncly(cluster.loop(), client, tags[t], payload));
      payloads[t].push_back(std::move(payload));
    }
  }
  return payloads;
}

// Drains a stream through repeated ReadNext windows until next_from stops moving.
std::vector<PositionedRecord> DrainStream(ErwinCluster& cluster, SharedLogClient& client,
                                          StreamTag tag, uint32_t window = 4) {
  std::vector<PositionedRecord> out;
  LogPos from = 0;
  for (int round = 0; round < 100; ++round) {
    ReadNextResult r = ReadNextSyncly(cluster.loop(), client, tag, from, window);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    if (!r.status.ok()) {
      break;
    }
    EXPECT_GE(r.next_from, from);  // the cursor never moves backwards
    for (auto& pr : r.records) {
      out.push_back(std::move(pr));
    }
    if (r.next_from == from) {
      break;  // no progress: the stream is drained up to current coverage
    }
    from = r.next_from;
  }
  return out;
}

void ExpectStreamEquals(const std::vector<PositionedRecord>& got,
                        const std::vector<std::string>& want, StreamTag tag) {
  ASSERT_EQ(got.size(), want.size());
  LogPos prev = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].record.payload, want[i]);
    EXPECT_EQ(got[i].record.tag, tag);
    EXPECT_FALSE(got[i].record.no_op);
    if (i > 0) {
      EXPECT_GT(got[i].pos, prev);  // strictly ascending positions
    }
    prev = got[i].pos;
  }
}

TEST(IndexTier, MSelectiveReadEndToEnd) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 3;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();

  const std::vector<StreamTag> tags = {1, 2, 3};
  auto payloads = AppendStreams(cluster, *client, tags, 6);
  cluster.RunFor(100 * kMs);  // ordering + index pulls settle

  // Coverage caught up with the stable frontier.
  IndexNode& ix = cluster.index_node(0);
  EXPECT_EQ(ix.indexed_upto(), 18u);
  EXPECT_EQ(ix.stable_gp(), 18u);
  EXPECT_EQ(ix.tags_tracked(), 3u);
  EXPECT_GT(ix.stats().delta_pulls, 0u);
  EXPECT_EQ(ix.stats().merged_positions, 18u);

  for (size_t t = 0; t < tags.size(); ++t) {
    auto got = DrainStream(cluster, *client, tags[t]);
    ExpectStreamEquals(got, payloads[t], tags[t]);
  }
  // The selective path actually hit the index node.
  EXPECT_GT(ix.stats().read_nexts, 0u);
  EXPECT_EQ(ix.stats().served_positions, 18u);
}

TEST(IndexTier, StSelectiveReadEndToEnd) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kSt;
  opt.num_shards = 3;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeStClient();

  const std::vector<StreamTag> tags = {7, 8};
  auto payloads = AppendStreams(cluster, *client, tags, 5);
  cluster.RunFor(100 * kMs);

  for (size_t t = 0; t < tags.size(); ++t) {
    auto got = DrainStream(cluster, *client, tags[t]);
    ExpectStreamEquals(got, payloads[t], tags[t]);
  }
  EXPECT_GT(cluster.index_node(0).stats().read_nexts, 0u);
}

// The index path's shard fetches reach the client's read-reply observer like ranged
// reads do: each reply names the serving replica, the stable-gp that replica
// advertised, and the records it served.
TEST(IndexTier, ReadNextFeedsReadReplyObserver) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 3;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();
  struct Serve {
    NodeId server;
    LogPos stable;
    size_t count;
    LogPos max_pos;
  };
  std::vector<Serve> serves;
  client->SetReadReplyObserver(
      [&serves](NodeId server, LogPos stable, const std::vector<PositionedRecord>& recs) {
        LogPos max_pos = 0;
        for (const PositionedRecord& pr : recs) {
          max_pos = std::max(max_pos, pr.pos);
        }
        serves.push_back(Serve{server, stable, recs.size(), max_pos});
      });

  const std::vector<StreamTag> tags = {1, 2};
  auto payloads = AppendStreams(cluster, *client, tags, 4);
  cluster.RunFor(100 * kMs);
  ASSERT_TRUE(serves.empty());  // appends alone read nothing

  ReadNextResult r = ReadNextSyncly(cluster.loop(), *client, 1, 0, 16);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.records.size(), payloads[0].size());
  ASSERT_FALSE(serves.empty());
  size_t served = 0;
  for (const Serve& sv : serves) {
    bool found = false;
    for (uint32_t s = 0; s < opt.num_shards; ++s) {
      for (uint32_t rep = 0; rep < opt.shard_replication; ++rep) {
        if (cluster.shard(s, rep).node_id() == sv.server) {
          found = true;
          EXPECT_EQ(sv.stable, cluster.shard(s, rep).stable_gp());
        }
      }
    }
    EXPECT_TRUE(found) << "observer named a node that is not a shard replica";
    EXPECT_EQ(sv.stable, 8u);
    EXPECT_LT(sv.max_pos, sv.stable);
    served += sv.count;
  }
  EXPECT_EQ(served, payloads[0].size());
}

// The merged per-tag position lists are disjoint across tags and cover exactly the
// tagged appends, in ascending order.
TEST(IndexTier, MergedListsAreDisjointAndSorted) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();

  AppendStreams(cluster, *client, {1, 2}, 8);
  cluster.RunFor(100 * kMs);

  IndexNode& ix = cluster.index_node(0);
  std::set<LogPos> seen;
  for (StreamTag tag : {StreamTag{1}, StreamTag{2}}) {
    const auto* list = ix.TagPositions(tag);
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->size(), 8u);
    LogPos prev = 0;
    for (size_t i = 0; i < list->size(); ++i) {
      if (i > 0) {
        EXPECT_GT((*list)[i].first, prev);
      }
      prev = (*list)[i].first;
      EXPECT_TRUE(seen.insert((*list)[i].first).second) << "position in two streams";
    }
  }
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(ix.TagPositions(999), nullptr);
}

TEST(IndexTier, ScanFallbackWithoutIndexNodes) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  opt.num_index_nodes = 0;  // tier disabled: ReadNext must scan
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();

  const std::vector<StreamTag> tags = {4, 5};
  auto payloads = AppendStreams(cluster, *client, tags, 4);
  cluster.RunFor(50 * kMs);

  for (size_t t = 0; t < tags.size(); ++t) {
    auto got = DrainStream(cluster, *client, tags[t], /*window=*/3);
    ExpectStreamEquals(got, payloads[t], tags[t]);
  }
}

// A scan ReadNext that fills `max` mid-chunk resumes just after the last position it
// consumed, never after the whole chunk it fetched.
TEST(IndexTier, ScanReadNextStoppedByMaxResumesAfterLastConsumed) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  opt.num_index_nodes = 0;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();

  const std::vector<StreamTag> tags = {4, 5};
  auto payloads = AppendStreams(cluster, *client, tags, 4);
  cluster.RunFor(50 * kMs);

  ReadNextResult r = ReadNextSyncly(cluster.loop(), *client, 4, 0, 2);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.next_from, r.records.back().pos + 1);
  EXPECT_LT(r.next_from, 8u) << "the scan claimed the whole chunk as covered";

  // Resuming there yields the rest of the stream.
  ReadNextResult rest = ReadNextSyncly(cluster.loop(), *client, 4, r.next_from, 16);
  ASSERT_TRUE(rest.status.ok()) << rest.status.ToString();
  for (auto& pr : rest.records) {
    r.records.push_back(std::move(pr));
  }
  ExpectStreamEquals(r.records, payloads[0], 4);
}

// Without an index node a named log's reads scan the stable prefix: ReadLog labels
// each record of the log with its rank in that log.
TEST(IndexTier, ScanFallbackRanksNamedLogReads) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  opt.num_index_nodes = 0;
  ErwinCluster cluster(opt);
  const LogId alpha_id = cluster.CreateLog("alpha");
  cluster.RunFor(5 * kMs);
  auto client = cluster.MakeMClient();
  LogHandle alpha = client->handle(alpha_id, "alpha");

  ASSERT_TRUE(AppendSyncly(cluster.loop(), client->log(), "d0"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), alpha, "a0"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), client->log(), "d1"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), alpha, "a1"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), alpha, "a2"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), client->log(), "d2"));
  cluster.RunFor(50 * kMs);

  auto recs = ReadSyncly(cluster.loop(), alpha, 1, 2);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), 2u);
  EXPECT_EQ((*recs)[0].pos, 1u);
  EXPECT_EQ((*recs)[0].record.payload.ToString(), "a1");
  EXPECT_EQ((*recs)[1].pos, 2u);
  EXPECT_EQ((*recs)[1].record.payload.ToString(), "a2");

  // A window past the log's end returns the ranks that exist.
  auto all = ReadSyncly(cluster.loop(), alpha, 0, 10);
  ASSERT_TRUE(all.has_value());
  ASSERT_EQ(all->size(), 3u);
  for (size_t i = 0; i < all->size(); ++i) {
    EXPECT_EQ((*all)[i].pos, i);
    EXPECT_EQ((*all)[i].record.log, alpha_id);
  }
}

// A client whose view still lists a since-crashed index node must complete ReadNext
// via the scan fallback (after the index RPC times out) with identical results.
TEST(IndexTier, ScanFallbackOnIndexNodeCrash) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  opt.with_control_plane = false;  // keep the crash from triggering reconfiguration
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();  // view built while the index node is alive

  const std::vector<StreamTag> tags = {6};
  auto payloads = AppendStreams(cluster, *client, tags, 5);
  cluster.RunFor(50 * kMs);
  cluster.CrashIndexNode(0);

  ReadNextResult r = ReadNextSyncly(cluster.loop(), *client, 6, 0, 16, 30 * kSec);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ExpectStreamEquals(r.records, payloads[0], 6);
}

TEST(IndexTier, ReadNextRejectsUntaggedStream) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 1;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();

  ReadNextResult r = ReadNextSyncly(cluster.loop(), *client, kNoTag, 0, 8);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(IndexTier, ReadTagChecksStreamMembership) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();

  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, StreamTag{1}, "one"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, StreamTag{2}, "two"));
  cluster.RunFor(50 * kMs);

  bool done = false;
  Status status = Status::Internal("pending");
  std::vector<PositionedRecord> recs;
  client->log().ReadTag(1, 0, [&](Status s, std::vector<PositionedRecord> r) {
    status = std::move(s);
    recs = std::move(r);
    done = true;
  });
  RunUntilDone(cluster.loop(), done);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].record.payload, "one");

  // Position 0 belongs to stream 1; asking for it under stream 2 must fail.
  done = false;
  client->log().ReadTag(2, 0, [&](Status s, std::vector<PositionedRecord>) {
    status = std::move(s);
    done = true;
  });
  RunUntilDone(cluster.loop(), done);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// Untagged appends never enter the index: records without a stream are scan-only.
TEST(IndexTier, UntaggedRecordsStayOutOfIndex) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "plain-" + std::to_string(i)));
  }
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, StreamTag{9}, "tagged"));
  cluster.RunFor(100 * kMs);

  IndexNode& ix = cluster.index_node(0);
  EXPECT_EQ(ix.tags_tracked(), 1u);
  EXPECT_EQ(ix.stats().merged_positions, 1u);
  // Coverage still advances over the untagged records: ReadNext(9) sees the whole log.
  EXPECT_EQ(ix.indexed_upto(), 5u);
  auto got = DrainStream(cluster, *client, 9);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].pos, 4u);
}

TEST(IndexTier, TrimPrunesMergedLists) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeMClient();

  auto payloads = AppendStreams(cluster, *client, {1}, 8);
  cluster.RunFor(100 * kMs);
  ASSERT_EQ(cluster.index_node(0).TagPositions(1)->size(), 8u);

  ASSERT_TRUE(TrimSyncly(cluster.loop(), *client, 5).ok());
  cluster.RunFor(50 * kMs);

  const auto* list = cluster.index_node(0).TagPositions(1);
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->size(), 3u);
  for (const auto& [pos, shard] : *list) {
    EXPECT_GE(pos, 5u);
  }
  // A drain from 0 must resume at the trim point and return the surviving suffix.
  auto got = DrainStream(cluster, *client, 1);
  ASSERT_EQ(got.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].record.payload, payloads[0][5 + i]);
  }
}

// Epoch fencing: after a seal at view v, stable-gp advances stamped with an older view
// are rejected and leave the frontier untouched.
TEST(IndexTier, FencingRejectsStaleStableGp) {
  SimParams params;
  EventLoop loop;
  Network net(&loop, params.net, /*seed=*/1);
  IndexNode node(&net, params, /*index=*/0);
  node.Start({});  // no shard feeds: pure fencing check
  RpcEndpoint client(&net);

  // Both are notifications, as in production; the node's pull tick never lets the loop
  // idle, so each runs for a millisecond.
  auto send_stable = [&](ViewId view, LogPos gp) {
    client.Notify(node.node_id(), kShardSetStableGp, StableGpMsg{view, gp});
    loop.RunUntil(loop.Now() + 1 * kMs);
  };

  send_stable(1, 10);
  EXPECT_EQ(node.stable_gp(), 10u);
  EXPECT_EQ(node.view(), 1u);

  // Seal to view 3 (controller fence).
  client.Notify(node.node_id(), kShardSeal, ShardSealReq{3});
  loop.RunUntil(loop.Now() + 1 * kMs);
  EXPECT_EQ(node.view(), 3u);

  // A deposed leader's advance (view 2 < 3) is ignored; the frontier holds.
  send_stable(2, 50);
  EXPECT_EQ(node.stable_gp(), 10u);

  // The new leader's advance lands.
  send_stable(3, 20);
  EXPECT_EQ(node.stable_gp(), 20u);
}

// Runtime shard addition: the index node starts pulling the new shard's journal, and
// streams that land on it stay selectively readable.
TEST(IndexTier, AddShardExtendsIndexCoverage) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kSt;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeStClient();

  auto payloads = AppendStreams(cluster, *client, {1}, 3);
  cluster.RunFor(50 * kMs);

  client->AddShard(cluster.AddShard());
  std::vector<std::string>& stream = payloads[0];
  for (int i = 0; i < 6; ++i) {
    std::string payload = "post-add-" + std::to_string(i);
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, StreamTag{1}, payload));
    stream.push_back(payload);
  }
  cluster.RunFor(100 * kMs);

  auto got = DrainStream(cluster, *client, 1);
  ExpectStreamEquals(got, stream, 1);
}

}  // namespace
}  // namespace lazylog
