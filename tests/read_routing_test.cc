// Read scale-out tests (DESIGN.md read path): load-aware replica routing (p2c over
// per-replica EWMA), coalesced multi-range reads with chunking, the tail cache fed by
// reply piggybacks, sequential readahead, and the posmap prefetch knob. Unit tests
// cover the router/caches/coalescer/codecs in isolation; the cluster tests assert the end-to-end
// counters and that routed reads return exactly the pinned-path results.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/lazylog/erwin_cluster.h"
#include "src/lazylog/read_path.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

// --- codec round trips ----------------------------------------------------------------

TEST(MultiRangeCodec, RequestRoundTrip) {
  ShardReadReq req;
  req.ranges.push_back(ReadRange{0, 4});
  req.ranges.push_back(ReadRange{17, 1});
  req.ranges.push_back(ReadRange{1000000, 256});
  Encoder e;
  req.Encode(e);
  Decoder d(e.data());
  ShardReadReq back;
  ASSERT_TRUE(back.Decode(d));
  ASSERT_EQ(back.ranges.size(), 3u);
  EXPECT_EQ(back.ranges[0].pos, 0u);
  EXPECT_EQ(back.ranges[0].len, 4u);
  EXPECT_EQ(back.ranges[2].pos, 1000000u);
  EXPECT_EQ(back.ranges[2].len, 256u);
  EXPECT_TRUE(d.Done());
}

TEST(MultiRangeCodec, ResponseRoundTripWithPiggyback) {
  ShardReadResp resp;
  resp.counts = {2, 0, 1};
  for (LogPos p : {5u, 6u, 40u}) {
    PositionedRecord rec;
    rec.pos = p;
    rec.record.payload = Buf("payload-" + std::to_string(p));
    resp.records.push_back(std::move(rec));
  }
  resp.stable_gp = 41;
  resp.durable_tail = 44;
  resp.queue_ns = 12345;
  Encoder e;
  resp.Encode(e);
  // Record payloads ride as attachments, so the decoder needs the attachment list.
  Decoder d(e.TakeBuf(), e.TakeAtts());
  ShardReadResp back;
  ASSERT_TRUE(back.Decode(d));
  EXPECT_EQ(back.counts, (std::vector<uint32_t>{2, 0, 1}));
  ASSERT_EQ(back.records.size(), 3u);
  EXPECT_EQ(back.records[2].pos, 40u);
  EXPECT_EQ(back.records[2].record.payload.ToString(), "payload-40");
  EXPECT_EQ(back.stable_gp, 41u);
  EXPECT_EQ(back.durable_tail, 44u);
  EXPECT_EQ(back.queue_ns, 12345u);
  EXPECT_TRUE(d.Done());
}

TEST(MultiRangeCodec, TruncatedResponseFailsCleanly) {
  ShardReadResp resp;
  resp.counts = {1};
  PositionedRecord rec;
  rec.pos = 3;
  rec.record.payload = Buf("x");
  resp.records.push_back(std::move(rec));
  Encoder e;
  resp.Encode(e);
  Buf full = e.data();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Decoder d(Buf(full.ToString().substr(0, cut)));
    ShardReadResp back;
    EXPECT_FALSE(back.Decode(d)) << "decoded from a " << cut << "-byte prefix";
  }
}

// --- ReplicaRouter --------------------------------------------------------------------

TEST(ReplicaRouter, ModeZeroAlwaysPicksPrimary) {
  SimParams params;
  params.client_read.read_routing_mode = 0;
  Rng rng(7);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  const std::vector<NodeId> replicas = {10, 11, 12};
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(router.PickStable(replicas), 10u);
  }
  EXPECT_EQ(stats.routed_reads, 32u);
  EXPECT_EQ(stats.backup_routed, 0u);
}

TEST(ReplicaRouter, PowerOfTwoChoicesSpreadsAcrossReplicas) {
  SimParams params;  // mode 2 default
  Rng rng(42);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  const std::vector<NodeId> replicas = {10, 11, 12};
  std::map<NodeId, int> picks;
  for (int i = 0; i < 300; ++i) {
    const NodeId n = router.PickStable(replicas);
    picks[n]++;
    // Feed symmetric feedback so no replica ever looks permanently cheaper.
    router.OnIssue(n);
    router.OnReply(n, 100 * kUs, 0);
  }
  // All three replicas serve a meaningful share under symmetric costs.
  ASSERT_EQ(picks.size(), 3u);
  for (const auto& [node, count] : picks) {
    EXPECT_GT(count, 30) << "replica " << node << " starved";
  }
  EXPECT_GT(stats.backup_routed, 0u);
  EXPECT_LT(stats.backup_routed, stats.routed_reads);
}

TEST(ReplicaRouter, AvoidsSlowReplicaAfterFeedback) {
  SimParams params;
  Rng rng(9);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  const std::vector<NodeId> replicas = {10, 11};
  // Teach the router: replica 11 is 50x slower than replica 10.
  for (int i = 0; i < 8; ++i) {
    router.OnIssue(10);
    router.OnReply(10, 20 * kUs, 0);
    router.OnIssue(11);
    router.OnReply(11, 1 * kMs, 0);
  }
  int slow_picks = 0;
  for (int i = 0; i < 200; ++i) {
    if (router.PickStable(replicas) == 11u) {
      slow_picks++;
    }
  }
  // p2c with a huge cost gap routes essentially everything to the fast replica; the
  // residual slow picks come only from both-choices-identical draws (impossible with
  // two replicas: the two choices are always distinct).
  EXPECT_EQ(slow_picks, 0);
  // Server-side queue feedback counts toward the cost estimate like RTT does.
  router.OnIssue(10);
  router.OnReply(10, 20 * kUs, /*server_queue_ns=*/10 * kMs);
  EXPECT_GT(router.Score(10), router.Score(11));
}

TEST(ReplicaRouter, InflightPenaltyShedsLoad) {
  SimParams params;
  Rng rng(3);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  // Equal EWMAs, but replica 10 has a pile of our own unanswered reads.
  for (NodeId n : {10u, 11u}) {
    router.OnIssue(n);
    router.OnReply(n, 100 * kUs, 0);
  }
  for (int i = 0; i < 4; ++i) {
    router.OnIssue(10);
  }
  EXPECT_GT(router.Score(10), router.Score(11));
}

// --- TailCache ------------------------------------------------------------------------

TEST(TailCache, MaxMergeAndTtl) {
  TailCache cache;
  LogPos d = 0, s = 0;
  EXPECT_FALSE(cache.Get(100, 1 * kMs, &d, &s)) << "empty cache served a tail";

  cache.Note(/*now=*/1000, /*durable=*/50, /*stable=*/40);
  cache.Note(/*now=*/2000, /*durable=*/45, /*stable=*/42);  // durable regression ignored
  ASSERT_TRUE(cache.Get(2500, 1 * kMs, &d, &s));
  EXPECT_EQ(d, 50u);  // max-merged: a late, lower sample never shrinks the cache
  EXPECT_EQ(s, 42u);

  // Past the TTL the cache refuses to serve, but the monotone values remain readable
  // through the raw accessors (routing decisions do not need freshness).
  EXPECT_FALSE(cache.Get(2000 + 2 * kMs, 1 * kMs, &d, &s));
  EXPECT_EQ(cache.stable(), 42u);
  EXPECT_EQ(cache.durable(), 50u);
}

// --- ReadAheadCache -------------------------------------------------------------------

PositionedRecord Rec(LogPos pos) {
  PositionedRecord r;
  r.pos = pos;
  r.record.payload = Buf("r" + std::to_string(pos));
  return r;
}

TEST(ReadAheadCache, ServesContiguousPrefixAndDropsBehind) {
  ReadAheadCache cache;
  cache.Insert({Rec(5), Rec(6), Rec(7), Rec(9)}, /*cap=*/16);
  std::vector<PositionedRecord> out;
  // Wrong start: nothing served, nothing dropped.
  EXPECT_EQ(cache.TakePrefix(4, 3, &out), 0u);
  EXPECT_EQ(cache.size(), 4u);
  // Contiguous run 5..7 serves 3 then stops at the 8-gap; served entries are dropped.
  EXPECT_EQ(cache.TakePrefix(5, 10, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].pos, 5u);
  EXPECT_EQ(out[2].pos, 7u);
  EXPECT_FALSE(cache.Covers(5));
  EXPECT_TRUE(cache.Covers(9));
}

TEST(ReadAheadCache, CapEvictsOldestPositions) {
  ReadAheadCache cache;
  cache.Insert({Rec(1), Rec(2), Rec(3), Rec(4)}, /*cap=*/2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Covers(1));
  EXPECT_FALSE(cache.Covers(2));
  EXPECT_TRUE(cache.Covers(3));
  EXPECT_TRUE(cache.Covers(4));
}

// --- ReadCoalescer -------------------------------------------------------------------

TEST(ReadCoalescer, OneFlushSendsEveryTargetInFirstAddOrder) {
  EventLoop loop;
  NetworkParams np;
  np.jitter_ns = 0;  // equal links: arrival order is send order
  Network net(&loop, np, 1);
  RpcEndpoint client(&net);
  RpcEndpoint a(&net);
  RpcEndpoint b(&net);
  // Each server records which node a multi-range read reached and how many ranges it
  // carried, then serves every range in full.
  std::vector<std::pair<NodeId, size_t>> arrivals;
  for (RpcEndpoint* server : {&a, &b}) {
    const NodeId id = server->node_id();
    server->Register(kShardMultiRangeRead, [&arrivals, id](NodeId, Decoder d, Responder r) {
      ShardReadReq req;
      ASSERT_TRUE(req.Decode(d));
      arrivals.emplace_back(id, req.ranges.size());
      ShardReadResp resp;
      for (const ReadRange& range : req.ranges) {
        resp.counts.push_back(range.len);
        for (uint32_t k = 0; k < range.len; ++k) {
          resp.records.push_back(PositionedRecord{range.pos + k, {}});
        }
      }
      r.Ok(resp);
    });
  }
  SimParams params;
  Rng rng(1);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  TailCache tails;
  ReadCoalescer coalescer(&client, &params, &router, &tails, &stats);
  int done = 0;
  auto cb = [&done](Status s, std::vector<PositionedRecord> recs) {
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(recs.size(), 2u);
    done++;
  };
  // b is added first, so it goes first; its second sub joins its batch.
  coalescer.Add(b.node_id(), b.node_id(), {ReadRange{0, 2}}, cb);
  coalescer.Add(a.node_id(), a.node_id(), {ReadRange{2, 2}}, cb);
  coalescer.Add(b.node_id(), b.node_id(), {ReadRange{4, 2}}, cb);
  ASSERT_EQ(loop.QueuedEvents(), 1u) << "one flush event per instant";
  const uint64_t sent_before = net.messages_sent();
  ASSERT_TRUE(loop.RunOne());
  EXPECT_EQ(net.messages_sent() - sent_before, 2u) << "the flush sends both targets";
  loop.RunUntilIdle();
  const std::vector<std::pair<NodeId, size_t>> want = {{b.node_id(), 2}, {a.node_id(), 1}};
  EXPECT_EQ(arrivals, want);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(stats.coalesced_subs, 3u);
  EXPECT_EQ(stats.coalesced_batches, 2u);
}

// A reply whose counts give a range more records than it asked for, or do not add up
// to the records it carries, is malformed. The coalescer fails the RPC's subs rather
// than handing one sub's records to another, and ignores the reply's tail piggyback;
// a classic waiting read's malformed reply fails the same way.
TEST(ReadCoalescer, ReplyCountsOutsideTheirRangesFailTheRpc) {
  EventLoop loop;
  NetworkParams np;
  Network net(&loop, np, 1);
  RpcEndpoint client(&net);
  RpcEndpoint server(&net);
  // Scripted replies, one per RPC: {2, 0} hands the second range's record to the
  // first range; {1, 1} claims two records but carries one.
  const std::vector<std::vector<uint32_t>> scripted = {{2, 0}, {1, 1}};
  size_t served = 0;
  server.Register(kShardMultiRangeRead, [&](NodeId, Decoder d, Responder r) {
    ShardReadReq req;
    ASSERT_TRUE(req.Decode(d));
    ASSERT_EQ(req.ranges.size(), 2u);
    ShardReadResp resp;
    resp.counts = scripted[served++];
    resp.records.push_back(PositionedRecord{req.ranges[0].pos, {}});
    if (resp.counts[0] == 2) {
      resp.records.push_back(PositionedRecord{req.ranges[1].pos, {}});
    }
    resp.stable_gp = 50;
    resp.durable_tail = 50;
    r.Ok(resp);
  });
  SimParams params;
  Rng rng(1);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  TailCache tails;
  ReadCoalescer coalescer(&client, &params, &router, &tails, &stats);
  for (size_t round = 0; round < scripted.size(); ++round) {
    std::vector<Status> statuses;
    std::vector<size_t> sizes;
    auto cb = [&](Status s, std::vector<PositionedRecord> recs) {
      statuses.push_back(std::move(s));
      sizes.push_back(recs.size());
    };
    coalescer.Add(server.node_id(), server.node_id(), {ReadRange{0, 1}}, cb);
    coalescer.Add(server.node_id(), server.node_id(), {ReadRange{10, 1}}, cb);
    loop.RunUntilIdle();
    ASSERT_EQ(statuses.size(), 2u) << "round " << round;
    for (size_t i = 0; i < statuses.size(); ++i) {
      EXPECT_FALSE(statuses[i].ok()) << "round " << round << " sub " << i;
      EXPECT_EQ(sizes[i], 0u) << "round " << round << " sub " << i;
    }
  }
  EXPECT_EQ(served, scripted.size());
  EXPECT_EQ(stats.clipped_resends, 0u);

  // A waiting read's reply is checked the same way: {2} gives its one-record range two
  // records.
  server.Register(kShardRead, [&](NodeId, Decoder d, Responder r) {
    ShardReadReq req;
    ASSERT_TRUE(req.Decode(d));
    ASSERT_EQ(req.ranges.size(), 1u);
    ShardReadResp resp;
    resp.counts = {2};
    resp.records.push_back(PositionedRecord{req.ranges[0].pos, {}});
    resp.records.push_back(PositionedRecord{req.ranges[0].pos + 1, {}});
    resp.stable_gp = 50;
    resp.durable_tail = 50;
    r.Ok(resp);
  });
  bool classic_done = false;
  Status classic = Status::Ok();
  size_t classic_size = 0;
  coalescer.ClassicRead(server.node_id(), 20, 1,
                        [&](Status s, std::vector<PositionedRecord> recs) {
                          classic = std::move(s);
                          classic_size = recs.size();
                          classic_done = true;
                        });
  loop.RunUntilIdle();
  ASSERT_TRUE(classic_done);
  EXPECT_FALSE(classic.ok());
  EXPECT_EQ(classic_size, 0u);
  EXPECT_EQ(tails.stable(), 0u) << "a malformed reply fed the tail cache";
}

// --- cluster integration --------------------------------------------------------------

ErwinClusterOptions Options(ErwinMode mode, uint32_t routing_mode) {
  ErwinClusterOptions opt;
  opt.mode = mode;
  opt.num_shards = 2;
  opt.shard_replication = 3;
  opt.with_control_plane = true;
  opt.params.client_read.read_routing_mode = routing_mode;
  return opt;
}

// Appends `n` records and runs until the whole log is stable (checked via CheckTail).
void FillLog(ErwinCluster& cluster, SharedLogClient& client, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), client, "rec-" + std::to_string(i)));
  }
  for (int round = 0; round < 50; ++round) {
    const TailResult tail = TailSyncly(cluster.loop(), client);
    if (tail.status.ok() && tail.stable >= n) {
      return;
    }
    cluster.RunFor(5 * kMs);
  }
  FAIL() << "log never stabilized at " << n;
}

uint64_t TotalBackupReads(ErwinCluster& cluster) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < cluster.num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster.shard_size(s); ++r) {
      total += cluster.shard(s, r).stats().backup_reads;
    }
  }
  return total;
}

uint64_t TotalMultiRangeReads(ErwinCluster& cluster) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < cluster.num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster.shard_size(s); ++r) {
      total += cluster.shard(s, r).stats().multirange_reads;
    }
  }
  return total;
}

TEST(ReadRouting, StRoutedReadsHitBackupsAndStayCorrect) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*routing_mode=*/2));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 48;
  FillLog(cluster, *client, kN);

  // Many independent ranged reads so p2c has real choices to make.
  std::set<std::string> seen;
  for (int pass = 0; pass < 6; ++pass) {
    auto recs = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
    ASSERT_TRUE(recs.has_value()) << "pass " << pass;
    ASSERT_EQ(recs->size(), kN);
    for (const auto& rec : *recs) {
      seen.insert(rec.record.payload.ToString());
    }
  }
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(seen.count("rec-" + std::to_string(i)), 1u);
  }

  const ReadPathStatsSnapshot snap = client->ReadPathSnapshot();
  EXPECT_GT(snap.counters.routed_reads, 0u);
  EXPECT_GT(snap.counters.backup_routed, 0u) << "p2c never left the primary";
  EXPECT_GT(snap.counters.coalesced_subs, 0u);
  EXPECT_GT(snap.counters.coalesced_batches, 0u);
  // Server side agrees: backups served reads, through the multi-range RPC.
  EXPECT_GT(TotalBackupReads(cluster), 0u);
  EXPECT_GT(TotalMultiRangeReads(cluster), 0u);
}

TEST(ReadRouting, ModeZeroPinsEveryReadToThePrimary) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*routing_mode=*/0));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 24;
  FillLog(cluster, *client, kN);
  for (int pass = 0; pass < 4; ++pass) {
    auto recs = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
    ASSERT_TRUE(recs.has_value());
    ASSERT_EQ(recs->size(), kN);
  }
  EXPECT_EQ(client->ReadPathSnapshot().counters.backup_routed, 0u);
  EXPECT_EQ(TotalBackupReads(cluster), 0u);
}

TEST(ReadRouting, ChunkingSplitsLargeReadsIntoPipelinedRpcs) {
  ErwinClusterOptions opt = Options(ErwinMode::kSt, /*routing_mode=*/2);
  opt.params.client_read.read_chunk_records = 4;  // force chunking on small reads
  opt.params.client_read.readahead_records = 0;   // isolate the chunk counters
  ErwinCluster cluster(opt);
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 32;
  FillLog(cluster, *client, kN);
  auto recs = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ((*recs)[i].pos, i);
  }
  // 32 records over 2 shards at <=4 records per RPC means several chunk RPCs beyond
  // the first per shard-run.
  EXPECT_GT(client->ReadPathSnapshot().counters.chunk_rpcs, 0u);
}

TEST(ReadRouting, TailCacheAnswersAfterReadPiggyback) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*routing_mode=*/2));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 8;
  FillLog(cluster, *client, kN);
  ASSERT_TRUE(ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec).has_value());

  // The read replies piggybacked the serving replica's tails: CachedTail answers
  // without an RPC while fresh...
  LogPos durable = 0, stable = 0;
  ASSERT_TRUE(client->CachedTail(&durable, &stable));
  EXPECT_GE(stable, kN);
  EXPECT_GE(durable, stable);
  EXPECT_GT(client->ReadPathSnapshot().counters.tail_cache_hits, 0u);

  // ...and refuses once the TTL lapses with no traffic refreshing it.
  cluster.RunFor(kTailCacheTtlNs + 1 * kMs);
  EXPECT_FALSE(client->CachedTail(&durable, &stable));
}

TEST(ReadRouting, SequentialReaderHitsReadahead) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*routing_mode=*/2));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 40;
  FillLog(cluster, *client, kN);

  // A sequential single-record reader: after the first fetch the prefetcher should be
  // feeding the cursor from the client-side cache.
  for (uint64_t pos = 0; pos < kN; ++pos) {
    auto recs = ReadSyncly(cluster.loop(), *client, pos, 1, 10 * kSec);
    ASSERT_TRUE(recs.has_value()) << "pos " << pos;
    ASSERT_EQ(recs->size(), 1u);
    EXPECT_EQ((*recs)[0].record.payload.ToString(), "rec-" + std::to_string(pos));
  }
  const ReadPathStatsSnapshot snap = client->ReadPathSnapshot();
  EXPECT_GT(snap.counters.readahead_fetched, 0u);
  EXPECT_GT(snap.counters.readahead_hits, 0u);
}

TEST(ReadRouting, RandomOffsetReaderDoesNotPrefetch) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*routing_mode=*/2));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 40;
  FillLog(cluster, *client, kN);

  // No read starts where the previous one ended (nor at 0), so none prefetches.
  for (LogPos from : {17, 3, 30, 9, 24, 1}) {
    auto recs = ReadSyncly(cluster.loop(), *client, from, 4, 10 * kSec);
    ASSERT_TRUE(recs.has_value()) << "from " << from;
    ASSERT_EQ(recs->size(), 4u);
    EXPECT_EQ((*recs)[0].pos, from);
  }
  const ReadPathStatsSnapshot snap = client->ReadPathSnapshot();
  EXPECT_EQ(snap.counters.readahead_fetched, 0u);
  EXPECT_EQ(snap.counters.readahead_hits, 0u);
}

TEST(ReadRouting, ReaderTurningSequentialResumesPrefetch) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*routing_mode=*/2));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 40;
  FillLog(cluster, *client, kN);

  // A jump to 10 does not prefetch.
  ASSERT_TRUE(ReadSyncly(cluster.loop(), *client, 10, 2, 10 * kSec).has_value());
  EXPECT_EQ(client->ReadPathSnapshot().counters.readahead_fetched, 0u);
  // The second contiguous read does; the reads after it are served from the cache.
  for (LogPos from = 12; from < 24; from += 2) {
    auto recs = ReadSyncly(cluster.loop(), *client, from, 2, 10 * kSec);
    ASSERT_TRUE(recs.has_value()) << "from " << from;
    ASSERT_EQ(recs->size(), 2u);
    EXPECT_EQ((*recs)[0].record.payload.ToString(), "rec-" + std::to_string(from));
    if (from == 12) {
      EXPECT_GT(client->ReadPathSnapshot().counters.readahead_fetched, 0u);
      EXPECT_EQ(client->ReadPathSnapshot().counters.readahead_hits, 0u);
    }
  }
  EXPECT_GT(client->ReadPathSnapshot().counters.readahead_hits, 0u);
}

TEST(ReadRouting, PosmapReadaheadParamAmortizesFetches) {
  // posmap_readahead is the fetch-span floor: a sequential single-record reader with a
  // span of 4 needs a mapping RPC every 4 positions, while the default span covers the
  // whole scan in one fetch. Record prefetch is disabled so only the mapping path runs.
  auto scan = [](uint64_t span) {
    ErwinClusterOptions opts = Options(ErwinMode::kSt, /*routing_mode=*/2);
    opts.params.client_read.posmap_readahead = span;
    opts.params.client_read.readahead_records = 0;
    ErwinCluster cluster(opts);
    auto client = cluster.MakeStClient();
    constexpr uint64_t kN = 24;
    FillLog(cluster, *client, kN);
    for (uint64_t pos = 0; pos < kN; ++pos) {
      auto recs = ReadSyncly(cluster.loop(), *client, pos, 1, 10 * kSec);
      EXPECT_TRUE(recs.has_value()) << "pos " << pos;
      if (recs.has_value()) {
        EXPECT_EQ((*recs)[0].record.payload.ToString(), "rec-" + std::to_string(pos));
      }
    }
    return client->posmap_fetches();
  };
  const uint64_t small_span_fetches = scan(4);
  const uint64_t default_span_fetches = scan(1024);
  EXPECT_GE(small_span_fetches, 24u / 4) << "posmap_readahead=4 not honored";
  EXPECT_LT(default_span_fetches, small_span_fetches);
}

TEST(ReadRouting, MModeRoutesStableReadsAndFallsBackAboveStable) {
  ErwinCluster cluster(Options(ErwinMode::kM, /*routing_mode=*/2));
  auto client = cluster.MakeMClient();
  constexpr uint64_t kN = 36;
  FillLog(cluster, *client, kN);

  // The CheckTail in FillLog primed the tail cache, so the whole prefix is known
  // stable and every sub goes through the router.
  std::set<std::string> seen;
  for (int pass = 0; pass < 6; ++pass) {
    auto recs = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
    ASSERT_TRUE(recs.has_value());
    ASSERT_EQ(recs->size(), kN);
    for (const auto& rec : *recs) {
      seen.insert(rec.record.payload.ToString());
    }
  }
  EXPECT_EQ(seen.size(), kN);
  const ReadPathStatsSnapshot snap = client->ReadPathSnapshot();
  EXPECT_GT(snap.counters.routed_reads, 0u);
  EXPECT_GT(snap.counters.backup_routed, 0u);
  EXPECT_GT(TotalBackupReads(cluster), 0u);

  // A reader with no stable knowledge (fresh client, no CheckTail yet) must still be
  // correct: its subs take the classic waiting-primary path.
  auto fresh = cluster.MakeMClient();
  auto recs = ReadSyncly(cluster.loop(), *fresh, 0, kN, 10 * kSec);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), kN);
  EXPECT_GT(fresh->ReadPathSnapshot().counters.primary_reads, 0u);
}

TEST(ReadRouting, ReadaheadPrefixJoinsTheFetchedRest) {
  ErwinClusterOptions opt = Options(ErwinMode::kSt, /*routing_mode=*/2);
  opt.params.client_read.readahead_records = 4;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 16;
  FillLog(cluster, *client, kN);

  // [0, 2) starts at the cursor, so it prefetches [2, 6).
  ASSERT_TRUE(ReadSyncly(cluster.loop(), *client, 0, 2, 10 * kSec).has_value());
  cluster.RunFor(5 * kMs);
  ASSERT_EQ(client->ReadPathSnapshot().counters.readahead_fetched, 4u);
  ASSERT_EQ(client->ReadPathSnapshot().counters.readahead_hits, 0u);

  // [2, 12): the cached [2, 6) and the fetched [6, 12) come back as one ordered run.
  auto recs = ReadSyncly(cluster.loop(), *client, 2, 10, 10 * kSec);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), 10u);
  for (uint64_t i = 0; i < recs->size(); ++i) {
    EXPECT_EQ((*recs)[i].pos, 2 + i);
    EXPECT_EQ((*recs)[i].record.payload.ToString(), "rec-" + std::to_string(2 + i));
  }
  EXPECT_EQ(client->ReadPathSnapshot().counters.readahead_hits, 4u);
}

// --- the read retry ladder, per mode --------------------------------------------------

struct ReadOutcome {
  bool done = false;
  Status status = Status::Internal("never completed");
  std::vector<PositionedRecord> records;
};

std::shared_ptr<ReadOutcome> StartRead(SharedLogClient& client, LogPos from, uint64_t len) {
  auto out = std::make_shared<ReadOutcome>();
  client.log().Read(from, len, [out](Status s, std::vector<PositionedRecord> recs) {
    out->status = std::move(s);
    out->records = std::move(recs);
    out->done = true;
  });
  return out;
}

// Cuts (or heals) the links between `client` and every replica of `shard`.
void CutShard(ErwinCluster& cluster, NodeId client, uint32_t shard, bool cut) {
  for (uint32_t r = 0; r < cluster.shard_size(shard); ++r) {
    cluster.network().SetPartitioned(client, cluster.shard(shard, r).node_id(), cut);
  }
}

uint64_t SubReads(const ErwinClient& client) {
  const ReadPathStats c = client.ReadPathSnapshot().counters;
  return c.routed_reads + c.primary_reads;
}

class ReadRetryLadder : public ::testing::TestWithParam<ErwinMode> {};

// Shard 1 is cut (Erwin-st fetches its position map from shard 0, which stays up). Each
// attempt reads both shards' runs once; the read gives up after 11 attempts.
TEST_P(ReadRetryLadder, CutShardTimesOutAfterElevenAttempts) {
  ErwinClusterOptions opt = Options(GetParam(), /*routing_mode=*/2);
  opt.params.client_read.readahead_records = 0;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeClient();
  constexpr uint64_t kN = 16;
  FillLog(cluster, *client, kN);

  CutShard(cluster, client->node_id(), 1, true);
  const uint64_t before = SubReads(*client);
  auto read = StartRead(*client, 0, kN);
  RunUntilDone(cluster.loop(), read->done, 10 * kSec);
  ASSERT_TRUE(read->done);
  EXPECT_EQ(read->status.code(), StatusCode::kTimeout) << read->status.ToString();
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(SubReads(*client) - before, 2u * 11);
}

TEST_P(ReadRetryLadder, CutHealedMidLadderReturnsEveryRecordInOrder) {
  ErwinClusterOptions opt = Options(GetParam(), /*routing_mode=*/2);
  opt.params.client_read.readahead_records = 0;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeClient();
  constexpr uint64_t kN = 16;
  FillLog(cluster, *client, kN);

  CutShard(cluster, client->node_id(), 1, true);
  const uint64_t before = SubReads(*client);
  auto read = StartRead(*client, 0, kN);
  // Two attempts time out (50 ms each) before the links come back.
  cluster.RunFor(120 * kMs);
  ASSERT_FALSE(read->done);
  EXPECT_GE(SubReads(*client) - before, 2u * 2);
  CutShard(cluster, client->node_id(), 1, false);
  RunUntilDone(cluster.loop(), read->done, 10 * kSec);
  ASSERT_TRUE(read->done);
  ASSERT_TRUE(read->status.ok()) << read->status.ToString();
  ASSERT_EQ(read->records.size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(read->records[i].pos, i);
    EXPECT_EQ(read->records[i].record.payload.ToString(), "rec-" + std::to_string(i));
  }
}

// Erwin-st resolves positions through shard 0's position map. A client with no cached
// map, cut from every replica of shard 0, fails each attempt at the map fetch and gives
// up after 11 attempts without reading a shard.
TEST(ReadRetryLadder, PosMapCutTimesOutAfterElevenAttempts) {
  ErwinClusterOptions opt = Options(ErwinMode::kSt, /*routing_mode=*/2);
  opt.params.client_read.readahead_records = 0;
  ErwinCluster cluster(opt);
  auto writer = cluster.MakeStClient();
  constexpr uint64_t kN = 16;
  FillLog(cluster, *writer, kN);

  auto client = cluster.MakeStClient();
  CutShard(cluster, client->node_id(), 0, true);
  auto read = StartRead(*client, 0, kN);
  RunUntilDone(cluster.loop(), read->done, 10 * kSec);
  ASSERT_TRUE(read->done);
  EXPECT_EQ(read->status.code(), StatusCode::kTimeout) << read->status.ToString();
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(client->posmap_fetches(), 11u);
  EXPECT_EQ(SubReads(*client), 0u);
}

TEST(ReadRetryLadder, PosMapCutHealedMidLadderReturnsEveryRecordInOrder) {
  ErwinClusterOptions opt = Options(ErwinMode::kSt, /*routing_mode=*/2);
  opt.params.client_read.readahead_records = 0;
  ErwinCluster cluster(opt);
  auto writer = cluster.MakeStClient();
  constexpr uint64_t kN = 16;
  FillLog(cluster, *writer, kN);

  auto client = cluster.MakeStClient();
  CutShard(cluster, client->node_id(), 0, true);
  auto read = StartRead(*client, 0, kN);
  // Two map fetches time out (50 ms each) before the links come back.
  cluster.RunFor(120 * kMs);
  ASSERT_FALSE(read->done);
  EXPECT_GE(client->posmap_fetches(), 2u);
  CutShard(cluster, client->node_id(), 0, false);
  RunUntilDone(cluster.loop(), read->done, 10 * kSec);
  ASSERT_TRUE(read->done);
  ASSERT_TRUE(read->status.ok()) << read->status.ToString();
  ASSERT_EQ(read->records.size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(read->records[i].pos, i);
    EXPECT_EQ(read->records[i].record.payload.ToString(), "rec-" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ReadRetryLadder,
                         ::testing::Values(ErwinMode::kM, ErwinMode::kSt),
                         [](const ::testing::TestParamInfo<ErwinMode>& info) {
                           return std::string(info.param == ErwinMode::kM ? "ErwinM"
                                                                          : "ErwinSt");
                         });

TEST(ReadRouting, SnapshotFieldsExportEveryCounter) {
  ReadPathStatsSnapshot snap;
  snap.counters.routed_reads = 3;
  snap.counters.backup_routed = 2;
  std::set<std::string> names;
  for (const auto& [name, value] : snap.Fields()) {
    names.insert(name);
    if (name == "routed_reads") {
      EXPECT_EQ(value, 3.0);
    }
  }
  for (const char* required :
       {"routed_reads", "backup_routed", "primary_reads", "coalesced_batches",
        "coalesced_subs", "chunk_rpcs", "clipped_resends", "tail_cache_hits",
        "readahead_hits", "readahead_fetched"}) {
    EXPECT_EQ(names.count(required), 1u) << required;
  }
}

}  // namespace
}  // namespace lazylog
