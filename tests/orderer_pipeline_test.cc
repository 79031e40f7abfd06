// Per-shard ordering-cursor pipeline tests (§4.3 cursor redesign): a partitioned shard
// must not stall the other shards' cursors, ordered-gp must track the minimum durable
// watermark across cursors under message loss, a leader crash mid-pipeline must not
// lose or duplicate acknowledged records, a shard added mid-flight must bootstrap its
// cursor at the assignment frontier, stable-gp must keep pace with a 45K x 4 KB append
// load, a disk-bound shard must plateau rather than time out every window, partial
// windows must be paced to the ack RTT while full windows go at once, and the paced
// cursor must keep depth / kPaceRtts windows in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/lazylog/erwin_cluster.h"
#include "src/seq/sequencing_replica.h"
#include "src/workload/drivers.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

ErwinClusterOptions PipelineOptions(ErwinMode mode, uint32_t shards,
                                    bool control_plane = false) {
  ErwinClusterOptions opt;
  opt.mode = mode;
  opt.num_shards = shards;
  opt.shard_replication = 2;
  opt.with_control_plane = control_plane;
  return opt;
}

// Issues `n` appends paced `gap_ns` apart, running the loop in between. Returns how
// many were acked.
uint64_t PacedAppends(ErwinCluster& c, SharedLogClient& client, int n, uint64_t gap_ns,
                      const std::string& prefix) {
  auto acked = std::make_shared<uint64_t>(0);
  for (int i = 0; i < n; ++i) {
    client.log().Append(prefix + std::to_string(i), [acked](Status s) {
      if (s.ok()) {
        (*acked)++;
      }
    });
    c.RunFor(gap_ns);
  }
  return *acked;
}

TEST(OrdererPipeline, PartitionedShardDoesNotStallOtherCursors) {
  ErwinCluster c(PipelineOptions(ErwinMode::kM, 3));
  auto client = c.MakeMClient();
  ASSERT_EQ(PacedAppends(c, *client, 30, 200 * kUs, "warm-"), 30u);
  c.RunFor(20 * kMs);

  // Cut the sequencing leader off from shard 1's primary only. Appends still complete
  // (the sequencing layer is unaffected); only shard 1's ordering cursor stalls.
  const NodeId leader = c.seq_replica(0).node_id();
  const NodeId victim = c.shard(1, 0).node_id();
  c.network().SetPartitioned(leader, victim, true);
  c.RunFor(20 * kMs);  // let the in-flight window to shard 1 time out

  auto mid = c.seq_replica(0).StatsSnapshot();
  ASSERT_EQ(mid.shards.size(), 3u);
  const LogPos stalled = mid.shards[1].acked_watermark;

  ASSERT_EQ(PacedAppends(c, *client, 120, 200 * kUs, "during-"), 120u);
  c.RunFor(20 * kMs);

  auto snap = c.seq_replica(0).StatsSnapshot();
  // The healthy cursors kept pushing windows and advanced their watermarks to the
  // assignment frontier; the partitioned cursor stayed put and accumulated retries.
  EXPECT_EQ(snap.shards[1].acked_watermark, stalled);
  EXPECT_GT(snap.shards[0].acked_watermark, stalled + 60);
  EXPECT_GT(snap.shards[2].acked_watermark, stalled + 60);
  EXPECT_GT(snap.shards[1].retries, 0u);
  // Global ordering is correctly gated on the minimum watermark.
  EXPECT_EQ(snap.ordered_gp, stalled);
  EXPECT_GT(snap.assigned_gp, snap.ordered_gp);
  // The healthy shards' servers really persisted their windows (durable frontier).
  EXPECT_GT(c.shard(0, 0).order_durable(), stalled);
  EXPECT_GT(c.shard(2, 0).order_durable(), stalled);

  // Heal: the stalled cursor resynchronizes from its watermark and the whole log
  // becomes ordered and stable.
  c.network().SetPartitioned(leader, victim, false);
  c.RunFor(300 * kMs);
  auto healed = c.seq_replica(0).StatsSnapshot();
  EXPECT_EQ(healed.ordered_gp, 150u);
  EXPECT_EQ(healed.assigned_gp, 150u);
  EXPECT_EQ(healed.stable_gp, 150u);
  auto records = ReadSyncly(c.loop(), *client, 0, 150, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), 150u);
}

TEST(OrdererPipeline, OrderedGpIsMinCursorWatermarkUnderLoss) {
  ErwinCluster c(PipelineOptions(ErwinMode::kM, 2));
  auto client = c.MakeMClient();
  c.network().SetLossProbability(0.02);

  auto acked = std::make_shared<uint64_t>(0);
  auto resolved = std::make_shared<uint64_t>(0);
  for (int i = 0; i < 100; ++i) {
    client->log().Append("lossy-" + std::to_string(i), [acked, resolved](Status s) {
      (*resolved)++;
      if (s.ok()) {
        (*acked)++;
      }
    });
    c.RunFor(300 * kUs);
    // The pipeline invariant: stable <= ordered <= every cursor's durable watermark,
    // and assignment never falls behind ordering.
    auto s = c.seq_replica(0).StatsSnapshot();
    EXPECT_LE(s.stable_gp, s.ordered_gp);
    EXPECT_LE(s.ordered_gp, s.assigned_gp);
    for (const auto& ps : s.shards) {
      EXPECT_LE(s.ordered_gp, ps.acked_watermark) << "shard " << ps.shard;
    }
  }
  // Let lost-append retries (client timeout + config probe + resend) drain.
  const SimTime resolve_deadline = c.loop().Now() + 10 * kSec;
  while (*resolved < 100 && c.loop().Now() < resolve_deadline) {
    c.RunFor(5 * kMs);
  }
  EXPECT_EQ(*resolved, 100u);
  EXPECT_EQ(*acked, 100u);  // retries absorb the loss

  c.network().SetLossProbability(0.0);
  c.RunFor(500 * kMs);
  auto final_snap = c.seq_replica(0).StatsSnapshot();
  EXPECT_EQ(final_snap.ordered_gp, final_snap.assigned_gp);
  EXPECT_EQ(final_snap.stable_gp, final_snap.ordered_gp);
  auto records = ReadSyncly(c.loop(), *client, 0, final_snap.ordered_gp, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), final_snap.ordered_gp);
}

TEST(OrdererPipeline, LeaderCrashMidPipelineKeepsAckedRecordsOnce) {
  ErwinCluster c(PipelineOptions(ErwinMode::kM, 2, /*control_plane=*/true));
  auto client = c.MakeMClient();
  std::vector<std::string> payloads;
  for (int i = 0; i < 24; ++i) {
    payloads.push_back("acked-" + std::to_string(i));
    ASSERT_TRUE(AppendSyncly(c.loop(), *client, payloads.back()));
  }
  // One ordering tick: windows are pushed (deep in the pipeline) but not all acked.
  c.RunFor(c.params().seq.ordering_interval_ns);
  c.CrashSeqReplica(0);

  bool reconfigured = false;
  c.controller()->OnReconfigured([&](const ReconfigTiming&) { reconfigured = true; });
  const SimTime deadline = c.loop().Now() + 2 * kSec;
  while (!reconfigured && c.loop().Now() < deadline) {
    c.RunFor(1 * kMs);
  }
  ASSERT_TRUE(reconfigured);
  c.RunFor(200 * kMs);

  // Every acknowledged record survives, exactly once, in real-time append order.
  auto records = ReadSyncly(c.loop(), *client, 0, 24, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 24u);
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ((*records)[i].record.payload, payloads[i]) << "position " << i;
  }
}

TEST(OrdererPipeline, AddShardMidFlightBootstrapsCursorAtAssignedGp) {
  ErwinCluster c(PipelineOptions(ErwinMode::kSt, 1));
  auto client = c.MakeStClient();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(AppendSyncly(c.loop(), *client, "pre-" + std::to_string(i)));
  }
  // Add the shard while ordering of the first batch may still be in flight.
  const LogPos frontier_at_add = c.seq_replica(0).assigned_gp();
  std::vector<NodeId> replicas = c.AddShard();
  client->AddShard(replicas);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(AppendSyncly(c.loop(), *client, "post-" + std::to_string(i)));
  }
  c.RunFor(300 * kMs);

  auto snap = c.seq_replica(0).StatsSnapshot();
  ASSERT_EQ(snap.shards.size(), 2u);
  // The new cursor joined at the assignment frontier (it owes nothing below it) and
  // has made progress of its own since.
  EXPECT_GE(snap.shards[1].acked_watermark, frontier_at_add);
  EXPECT_GT(snap.shards[1].pushes, 0u);
  EXPECT_EQ(snap.ordered_gp, 40u);
  EXPECT_EQ(snap.stable_gp, 40u);
  auto records = ReadSyncly(c.loop(), *client, 0, 40, 10 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 40u);
  // Both shards hold part of the post-add traffic (round-robin placement).
  EXPECT_GT(c.shard(1, 0).ordered_records(), 0u);
}

// The fig08/09/11 top-rate regime: 45K appends/s of 4 KB into one Erwin-m shard with
// three replicas, where the shard disk runs at ~60% of its bandwidth. The orderer must
// keep pace with no cursor retry: every append acks, and every acked record is stable
// within 5 ms.
TEST(OrdererPipeline, ErwinM45KKeepsStableGpWithin5MsOfAckedTail) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 1;
  opt.shard_replication = 3;
  ErwinCluster c(opt);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  std::vector<std::unique_ptr<OpenLoopAppender>> appenders;
  for (uint64_t i = 0; i < 4; ++i) {
    clients.push_back(c.MakeMClient());
    OpenLoopAppender::Options aopt;
    aopt.rate_per_sec = 45'000.0 / 4;
    aopt.record_bytes = 4096;
    appenders.push_back(
        std::make_unique<OpenLoopAppender>(&c.loop(), clients.back()->log(), aopt, 100 + i));
    appenders.back()->Start();
  }
  auto acked = [&]() {
    uint64_t n = 0;
    for (const auto& a : appenders) {
      n += a->acked();
    }
    return n;
  };
  // acked_at[t] = appends acked by t ms; at t ms, stable-gp must cover acked_at[t - 5].
  std::vector<uint64_t> acked_at;
  constexpr uint64_t kRunMs = 250;
  constexpr uint64_t kLagMs = 5;
  for (uint64_t t = 0; t < kRunMs; ++t) {
    c.RunFor(kMs);
    acked_at.push_back(acked());
    if (t >= kLagMs) {
      ASSERT_GE(c.seq_replica(0).stable_gp(), acked_at[t - kLagMs]) << "at " << t + 1 << " ms";
    }
  }
  for (auto& a : appenders) {
    a->Stop();
  }
  c.RunFor(20 * kMs);
  uint64_t issued = 0;
  for (const auto& a : appenders) {
    issued += a->issued();
    EXPECT_EQ(a->failed(), 0u);
  }
  EXPECT_GT(issued, 11'000u);
  EXPECT_EQ(acked(), issued);
  auto snap = c.seq_replica(0).StatsSnapshot();
  EXPECT_EQ(snap.stable_gp, issued);
  for (const auto& ps : snap.shards) {
    EXPECT_EQ(ps.retries, 0u) << "shard " << ps.shard;
  }
}

// Erwin-m at 3 shards x 2 replicas with 8 KB records, offered 130K appends/s: each
// shard's disk gets slightly more than its bandwidth, so window RTTs climb toward the
// push timeout. The cursors must not time out windows the shard is still writing (each
// retry re-sends work already queued on the disk, and goodput collapses): the cluster
// plateaus near the offered rate with no cursor retry and no failed append.
TEST(OrdererPipeline, DiskBoundShardPlateausInsteadOfCollapsing) {
  ErwinCluster c(PipelineOptions(ErwinMode::kM, 3));
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (int i = 0; i < 24; ++i) {
    clients.push_back(c.MakeMClient());
  }
  // One 8 KB append every 1/130K s, round-robin over the clients. Over capacity, the
  // admission gate sheds some (kOverloaded); any other failure is an append that gave
  // up on its retries.
  const Buf payload = Buf::FromString(std::string(8192, 'x'));
  uint64_t acked = 0;
  uint64_t shed = 0;
  uint64_t gave_up = 0;
  constexpr uint64_t kRun = 200 * kMs;
  const auto gap = static_cast<uint64_t>(1e9 / 130e3);
  for (uint64_t i = 0; i * gap < kRun; ++i) {
    clients[i % clients.size()]->log().Append(payload, [&](Status s) {
      if (s.ok()) {
        acked++;
      } else if (s.code() == StatusCode::kOverloaded) {
        shed++;
      } else {
        gave_up++;
      }
    });
    c.RunFor(gap);
  }
  EXPECT_GE(static_cast<double>(acked) / (static_cast<double>(kRun) / kSec), 90e3)
      << "shed " << shed;
  EXPECT_EQ(gave_up, 0u);
  for (const auto& ps : c.seq_replica(0).StatsSnapshot().shards) {
    EXPECT_EQ(ps.retries, 0u) << "shard " << ps.shard;
  }
}

// A scripted Erwin-m shard primary: logs each ordering window as it arrives and acks
// it a fixed delay later with the window's end as the durable watermark (windows
// arrive in span order: one NIC lane and no jitter).
class ScriptedShard {
 public:
  struct Arrival {
    SimTime at = 0;
    LogPos lo = 0;
    LogPos hi = 0;
  };

  ScriptedShard(Network* net, uint64_t ack_delay_ns) : endpoint_(net) {
    endpoint_.Handle<ShardAppendBatchReq>(
        kShardAppendBatch, [this, ack_delay_ns](NodeId, ShardAppendBatchReq w, Responder r) {
          EXPECT_EQ(w.range_lo, arrivals_.empty() ? 0 : arrivals_.back().hi);
          arrivals_.push_back(Arrival{endpoint_.loop()->Now(), w.range_lo, w.range_hi});
          endpoint_.loop()->Schedule(ack_delay_ns, [r, hi = w.range_hi]() mutable {
            r.Ok(ShardOrderAckResp{hi});
          });
        });
    endpoint_.Handle<StableGpMsg>(kShardSetStableGp, [](NodeId, const StableGpMsg&) {});
  }

  NodeId node_id() const { return endpoint_.node_id(); }
  const std::vector<Arrival>& arrivals() const { return arrivals_; }

 private:
  RpcEndpoint endpoint_;
  std::vector<Arrival> arrivals_;
};

TEST(OrdererPipeline, PartialWindowsArePacedFullWindowsAreNot) {
  EventLoop loop;
  SimParams params;
  params.net.jitter_ns = 0;
  params.seq.max_order_batch = 64;  // 30 us tick, 64-record windows
  Network net(&loop, params.net, 1);
  ScriptedShard shard(&net, 400 * kUs);
  SequencingReplica seq(&net, params, ErwinMode::kM, 0);
  seq.Start({seq.node_id()}, {shard.node_id()}, {shard.node_id()});
  RpcEndpoint client(&net);
  uint64_t next_id = 0;
  uint64_t acked = 0;
  auto append = [&]() {
    SeqAppendReq req;
    req.id = RecordId{1, ++next_id};
    req.payload = "x";
    client.CallMsg(seq.node_id(), kSeqAppend, req,
                   [&acked](Status s, Decoder) { acked += s.ok() ? 1 : 0; }, kSec);
  };

  // A trickle of one append per 20 us fills far less than a 64-record window per
  // round trip, so every window is partial and the cursor always has one in flight.
  for (int i = 0; i < 1000; ++i) {
    append();
    loop.RunUntil(loop.Now() + 20 * kUs);
  }
  loop.RunUntil(loop.Now() + 5 * kMs);
  ASSERT_EQ(acked, 1000u);
  const auto trickle = shard.arrivals();
  const double rtt_ns = seq.StatsSnapshot().ack_rtt_ewma_ns;
  ASSERT_GT(rtt_ns, 400.0 * kUs);
  const double pace_ns =
      SequencingReplica::kPaceRtts * rtt_ns / params.seq.order_pipeline_depth;
  const SimTime first_ack = trickle.front().at + static_cast<SimTime>(rtt_ns);
  size_t paced = 0;
  for (size_t i = 1; i < trickle.size(); ++i) {
    EXPECT_LT(trickle[i].hi - trickle[i].lo, params.seq.max_order_batch);
    if (trickle[i - 1].at < first_ack || trickle[i].hi == next_id) {
      continue;  // no RTT sample yet, or the drain's last window
    }
    // Partial windows leave at least the pace apart, and a held window goes on the
    // next tick.
    const double gap = static_cast<double>(trickle[i].at - trickle[i - 1].at);
    EXPECT_GE(gap, 0.99 * pace_ns) << "window " << i;
    EXPECT_LE(gap, pace_ns + 2.0 * params.seq.ordering_interval_ns) << "window " << i;
    paced++;
  }
  EXPECT_GT(paced, 50u);

  // A burst fills windows faster than the pace. A full window goes at once, even while
  // the partial window before it left less than one pace ago.
  for (int i = 0; i < 512; ++i) {
    append();
  }
  loop.RunUntil(loop.Now() + 20 * kMs);
  ASSERT_EQ(acked, 1512u);
  const auto& all = shard.arrivals();
  size_t full = 0;
  size_t full_unpaced = 0;
  for (size_t i = trickle.size(); i < all.size(); ++i) {
    if (all[i].hi - all[i].lo < params.seq.max_order_batch) {
      continue;
    }
    full++;
    if (static_cast<double>(all[i].at - all[i - 1].at) < pace_ns) {
      full_unpaced++;
    }
  }
  EXPECT_GE(full, 4u);
  EXPECT_GE(full_unpaced, 3u);
  EXPECT_EQ(all.back().hi, 1512u);
}

// A trickle of partial windows against a fixed-latency shard: windows leave one pace
// (kPaceRtts x RTT / depth, plus under one tick) apart and each stays out one RTT, so at
// steady state the cursor keeps about depth / kPaceRtts windows in flight.
TEST(OrdererPipeline, PacedCursorKeepsDepthOverPaceRttsWindowsInFlight) {
  EventLoop loop;
  SimParams params;
  params.net.jitter_ns = 0;
  Network net(&loop, params.net, 1);
  ScriptedShard shard(&net, 400 * kUs);
  SequencingReplica seq(&net, params, ErwinMode::kM, 0);
  seq.Start({seq.node_id()}, {shard.node_id()}, {shard.node_id()});
  RpcEndpoint client(&net);
  uint64_t next_id = 0;
  uint64_t acked = 0;
  const uint32_t depth = params.seq.order_pipeline_depth;
  uint64_t samples = 0;
  uint64_t in_flight_sum = 0;
  uint32_t in_flight_max = 0;
  for (int i = 0; i < 2000; ++i) {
    SeqAppendReq req;
    req.id = RecordId{1, ++next_id};
    req.payload = "x";
    client.CallMsg(seq.node_id(), kSeqAppend, req,
                   [&acked](Status s, Decoder) { acked += s.ok() ? 1 : 0; }, kSec);
    loop.RunUntil(loop.Now() + 10 * kUs);
    if (i >= 500) {  // past the first RTT samples
      const auto in_flight = static_cast<uint32_t>(seq.StatsSnapshot().shards[0].in_flight);
      in_flight_max = std::max(in_flight_max, in_flight);
      in_flight_sum += in_flight;
      samples++;
    }
  }
  loop.RunUntil(loop.Now() + 5 * kMs);
  ASSERT_EQ(acked, 2000u);
  const double rtt_ns = seq.StatsSnapshot().ack_rtt_ewma_ns;
  const double pace_ns = SequencingReplica::kPaceRtts * rtt_ns / depth;
  const double tick_ns = static_cast<double>(params.seq.ordering_interval_ns);
  const double avg = static_cast<double>(in_flight_sum) / static_cast<double>(samples);
  EXPECT_EQ(in_flight_max, static_cast<uint32_t>(std::ceil(rtt_ns / pace_ns)));
  // The old pace, 2 x RTT / depth, never had more than half the depth out.
  EXPECT_GT(in_flight_max, depth / 2);
  EXPECT_GE(avg, rtt_ns / (pace_ns + tick_ns));
  EXPECT_LE(avg, rtt_ns / pace_ns);
  for (size_t i = 1; i < shard.arrivals().size(); ++i) {
    EXPECT_LT(shard.arrivals()[i].hi - shard.arrivals()[i].lo, params.seq.max_order_batch);
  }
}

}  // namespace
}  // namespace lazylog
