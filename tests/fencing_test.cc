// Epoch-fencing tests: jittered client backoff (no thundering herd after a view
// change), client re-resolution on STALE_VIEW after an asymmetric leader partition,
// exactly-once delivery of appends in flight across a view change, and controller-driven
// shard membership changes propagating to clients through "/shards/config".
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/common/random.h"
#include "src/lazylog/erwin_cluster.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

ErwinClusterOptions MOptions(uint64_t seed = 7) {
  ErwinClusterOptions copts;
  copts.mode = ErwinMode::kM;
  copts.num_shards = 2;
  copts.shard_replication = 3;
  copts.with_control_plane = true;
  copts.params.seed = seed;
  copts.params.rpc_timeout_ns = 5 * kMs;  // fail fast onto the retry/refresh path
  return copts;
}

// Appends `payloads` and runs the loop until every callback fired; returns the per-
// payload durable flag.
std::map<std::string, bool> AppendAll(ErwinCluster& c, ErwinMClient* client,
                                      const std::vector<std::string>& payloads,
                                      uint64_t budget_ns = 500 * kMs) {
  std::map<std::string, bool> acked;
  size_t resolved = 0;
  for (const std::string& p : payloads) {
    client->log().Append(p, [&acked, &resolved, p](Status s) {
      acked[p] = s.ok();
      resolved++;
    });
  }
  uint64_t spent = 0;
  while (resolved < payloads.size() && spent < budget_ns) {
    c.RunFor(1 * kMs);
    spent += 1 * kMs;
  }
  EXPECT_EQ(resolved, payloads.size()) << "appends never resolved";
  return acked;
}

// Drives ordering until the stable prefix covers every durable record, then reads the
// whole log back. Sentinel appends force ordering rounds exactly like the chaos runner.
std::vector<PositionedRecord> ReadBackAll(ErwinCluster& c, ErwinMClient* client) {
  LogPos stable = 0;
  for (int round = 0; round < 100; ++round) {
    bool done = false;
    LogPos durable = 0;
    bool ok = false;
    client->log().CheckTail([&](Status s, LogPos d, LogPos st) {
      ok = s.ok();
      durable = d;
      stable = st;
      done = true;
    });
    RunUntilDone(c.loop(), done, 100 * kMs);
    if (ok && durable == stable && durable > 0) {
      break;
    }
    bool appended = false;
    client->log().Append("sentinel" + std::to_string(round), [&](Status) { appended = true; });
    RunUntilDone(c.loop(), appended, 100 * kMs);
    c.RunFor(2 * kMs);
  }
  std::vector<PositionedRecord> out;
  bool done = false;
  client->log().Read(0, stable, [&](Status s, std::vector<PositionedRecord> recs) {
    if (s.ok()) {
      out = std::move(recs);
    }
    done = true;
  });
  RunUntilDone(c.loop(), done, 200 * kMs);
  return out;
}

uint64_t CountPayload(const std::vector<PositionedRecord>& log, const std::string& p) {
  return static_cast<uint64_t>(
      std::count_if(log.begin(), log.end(),
                    [&p](const PositionedRecord& r) { return r.record.payload == p; }));
}

// --- RetryBackoffNs: the client-side anti-thundering-herd primitive ------------------

TEST(FencingBackoff, ExponentialBaseWithCap) {
  // jitter 0 gives the floor (base/2); jitter ~1 approaches the full base.
  EXPECT_EQ(RetryBackoffNs(0, 0.0), 125 * kUs);
  EXPECT_EQ(RetryBackoffNs(1, 0.0), 250 * kUs);
  EXPECT_EQ(RetryBackoffNs(2, 0.0), 500 * kUs);
  EXPECT_EQ(RetryBackoffNs(5, 0.0), 4 * kMs);
  EXPECT_EQ(RetryBackoffNs(40, 0.0), 4 * kMs);  // capped, no overflow
  for (uint32_t attempt = 0; attempt < 8; ++attempt) {
    const uint64_t floor = RetryBackoffNs(attempt, 0.0);
    const uint64_t near_ceil = RetryBackoffNs(attempt, 0.999);
    EXPECT_GE(near_ceil, floor);
    EXPECT_LT(near_ceil, 2 * floor + 1);  // jitter never exceeds the base
  }
}

TEST(FencingBackoff, ClientsSpreadInsteadOfHerding) {
  // 32 clients deposed by the same view change, each with its per-client seeded rng
  // stream: their first retry delays must scatter across the jitter window rather than
  // collapse onto one instant.
  constexpr int kClients = 32;
  std::set<uint64_t> distinct;
  uint64_t lo = UINT64_MAX, hi = 0;
  for (int i = 0; i < kClients; ++i) {
    Rng rng(uint64_t{1} ^ (0xc11e47a5ULL + static_cast<uint64_t>(i)));
    const uint64_t d = RetryBackoffNs(2, rng.NextDouble());
    distinct.insert(d);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GE(distinct.size(), static_cast<size_t>(kClients - 2));
  // The spread must cover a meaningful slice of the jitter window (base/2 = 500us).
  EXPECT_GT(hi - lo, 200 * kUs);
  EXPECT_GE(lo, 500 * kUs);
  EXPECT_LT(hi, 1000 * kUs);
}

// --- STALE_VIEW re-resolution after an asymmetric partition --------------------------

TEST(Fencing, DeposedLeaderClientReResolvesAndCommitsExactlyOnce) {
  ErwinClusterOptions copts = MOptions();
  ErwinCluster c(copts);
  auto client = c.MakeMClient();

  const auto warm = AppendAll(c, client.get(), {"w0", "w1", "w2"});
  for (const auto& [p, durable] : warm) {
    ASSERT_TRUE(durable) << p;
  }
  const ViewId v0 = c.controller()->view();
  const ViewId tail_v0 = client->last_tail_view();

  // Cut the leader off from ZK and the controller only: its session expires and the
  // control plane reconfigures around it, but it stays reachable from clients — the
  // classic deposed-but-alive split-brain that the shard fence must contain.
  const NodeId leader = c.seq_replica(0).node_id();
  c.network().SetPartitioned(leader, c.zookeeper()->node_id(), true);
  c.network().SetPartitioned(leader, c.controller()->node_id(), true);
  c.RunFor(60 * kMs);
  ASSERT_GT(c.controller()->view(), v0) << "deposition was never detected";

  // The stale client keeps appending: every ack must come from the new view (via
  // STALE_VIEW / sealed probes + config re-resolution), and committed records must
  // appear exactly once despite the cross-view retries.
  std::vector<std::string> payloads;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back("post-deposition-" + std::to_string(i));
  }
  const auto acked = AppendAll(c, client.get(), payloads);
  const auto log = ReadBackAll(c, client.get());
  ASSERT_FALSE(log.empty());
  for (const auto& [p, durable] : acked) {
    ASSERT_TRUE(durable) << p << " failed to commit after the view change";
    EXPECT_EQ(CountPayload(log, p), 1u) << p;
  }
  for (const char* p : {"w0", "w1", "w2"}) {
    EXPECT_EQ(CountPayload(log, p), 1u) << p;
  }
  EXPECT_GT(client->view(), v0) << "client never adopted the new view";
  EXPECT_GT(client->last_tail_view(), tail_v0);
}

TEST(Fencing, InFlightAppendsSurviveViewChangeExactlyOnce) {
  ErwinClusterOptions copts = MOptions(11);
  ErwinCluster c(copts);
  auto client = c.MakeMClient();
  const auto warm = AppendAll(c, client.get(), {"warm"});
  ASSERT_TRUE(warm.at("warm"));

  // Launch appends and crash the leader while they are in flight. The client must
  // retry them into the new view; duplicate-filtering by record id must keep every
  // acked append at exactly one position.
  std::map<std::string, bool> acked;
  size_t resolved = 0;
  std::vector<std::string> payloads;
  for (int i = 0; i < 4; ++i) {
    payloads.push_back("inflight-" + std::to_string(i));
  }
  for (const std::string& p : payloads) {
    client->log().Append(p, [&acked, &resolved, p](Status s) {
      acked[p] = s.ok();
      resolved++;
    });
  }
  c.RunFor(100 * kUs);  // on the wire, not yet acked
  c.CrashSeqReplica(0);
  uint64_t spent = 0;
  while (resolved < payloads.size() && spent < 500 * kMs) {
    c.RunFor(1 * kMs);
    spent += 1 * kMs;
  }
  ASSERT_EQ(resolved, payloads.size()) << "in-flight appends never resolved";

  const auto log = ReadBackAll(c, client.get());
  ASSERT_FALSE(log.empty());
  for (const std::string& p : payloads) {
    const uint64_t copies = CountPayload(log, p);
    if (acked.at(p)) {
      EXPECT_EQ(copies, 1u) << p << " acked across the view change";
    } else {
      EXPECT_LE(copies, 1u) << p << " duplicated";
    }
  }
}

// --- controller-driven shard membership ----------------------------------------------

TEST(Fencing, ShardReplacementFlowsThroughControlPlaneToClients) {
  ErwinClusterOptions copts = MOptions(13);
  ErwinCluster c(copts);
  auto client = c.MakeMClient();

  std::vector<std::string> payloads;
  for (int i = 0; i < 6; ++i) {
    payloads.push_back("rec-" + std::to_string(i));
  }
  const auto acked = AppendAll(c, client.get(), payloads);
  for (const auto& [p, durable] : acked) {
    ASSERT_TRUE(durable) << p;
  }
  const auto before = ReadBackAll(c, client.get());
  ASSERT_GE(before.size(), payloads.size());
  ASSERT_EQ(client->shard_epoch(), 1u);

  // Replace every backup of both shards, so any backup the load-aware router picks for
  // the stale client is dead. Each replacement goes through the controller: state copy
  // over RPC, the new membership persisted to ZK under a bumped epoch, and the
  // sequencing replicas re-wired via RPC.
  for (uint32_t shard = 0; shard < copts.num_shards; ++shard) {
    for (uint32_t replica = 1; replica < copts.shard_replication; ++replica) {
      const NodeId fresh = c.ReplaceShardReplica(shard, replica);
      c.RunFor(30 * kMs);
      ASSERT_EQ(c.MakeView().shards[shard][replica], fresh);
    }
  }
  EXPECT_EQ(c.controller()->shard_epoch(), 5u);
  EXPECT_EQ(c.MakeView().shard_epoch, 5u);

  // The old client's next routed read hits a crashed backup, fails, refreshes
  // "/shards/config", and retries against the replacements.
  const uint64_t backup_before = client->ReadPathSnapshot().counters.backup_routed;
  const auto after = ReadBackAll(c, client.get());
  ASSERT_GE(after.size(), payloads.size());
  for (const std::string& p : payloads) {
    EXPECT_EQ(CountPayload(after, p), 1u) << p;
  }
  EXPECT_GT(client->ReadPathSnapshot().counters.backup_routed, backup_before)
      << "no read was routed to a (replaced) backup";
  EXPECT_EQ(client->shard_epoch(), 5u) << "client never adopted the new shard config";

  // A client built afterwards starts on the new membership directly.
  auto late = c.MakeMClient();
  EXPECT_EQ(late->shard_epoch(), 5u);
}

}  // namespace
}  // namespace lazylog
