// KafkaLite tests: producer linger batching, acks=all replication, consumer fetch,
// truncation, and the Erwin-m black-box shard adapter (total order across Kafka shards
// with 1-RTT appends, §6.8).
#include <gtest/gtest.h>

#include "src/baselines/kafkalite/kafkalite.h"
#include "src/lazylog/erwin_m_client.h"
#include "src/seq/sequencing_replica.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

TEST(KafkaLite, ProduceWaitsForLinger) {
  SimParams params;
  KafkaCluster cluster(1, 2, params);
  auto producer = cluster.MakeProducer(0);
  bool acked = false;
  SimTime ack_time = 0;
  producer->Produce("m1", [&](Status s) {
    acked = s.ok();
    ack_time = cluster.loop().Now();
  });
  cluster.RunFor(kKafkaLingerNs / 2);
  EXPECT_FALSE(acked);  // still lingering
  cluster.RunFor(kKafkaLingerNs + 10 * kMs);
  ASSERT_TRUE(acked);
  EXPECT_GE(ack_time, kKafkaLingerNs);
}

TEST(KafkaLite, BatchSharesOneProduceRpc) {
  SimParams params;
  KafkaCluster cluster(1, 2, params);
  auto producer = cluster.MakeProducer(0);
  int acks = 0;
  for (int i = 0; i < 10; ++i) {
    producer->Produce("m" + std::to_string(i), [&](Status s) { acks += s.ok() ? 1 : 0; });
  }
  cluster.RunFor(kKafkaLingerNs + 20 * kMs);
  EXPECT_EQ(acks, 10);
  EXPECT_EQ(cluster.broker(0, 0).log_end_offset(), 10u);
}

TEST(KafkaLite, AcksAllReplicates) {
  SimParams params;
  KafkaCluster cluster(1, 3, params);
  auto producer = cluster.MakeProducer(0);
  bool acked = false;
  producer->Produce("replicated", [&](Status s) { acked = s.ok(); });
  producer->Flush();
  cluster.RunFor(50 * kMs);
  ASSERT_TRUE(acked);
  for (uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.broker(0, r).log_end_offset(), 1u) << "replica " << r;
    EXPECT_EQ(cluster.broker(0, r).At(0)->payload, "replicated");
  }
}

TEST(KafkaLite, ConsumerFetches) {
  SimParams params;
  KafkaCluster cluster(1, 2, params);
  auto producer = cluster.MakeProducer(0);
  for (int i = 0; i < 5; ++i) {
    producer->Produce("c" + std::to_string(i), nullptr);
  }
  producer->Flush();
  cluster.RunFor(50 * kMs);
  auto consumer = cluster.MakeConsumer(0);
  std::vector<Record> got;
  bool done = false;
  consumer->Fetch(1, 3, [&](Status s, std::vector<Record> records) {
    ASSERT_TRUE(s.ok());
    got = std::move(records);
    done = true;
  });
  RunUntilDone(cluster.loop(), done);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].payload, "c1");
  EXPECT_EQ(got[2].payload, "c3");
}

TEST(KafkaLite, TruncatePropagatesToFollowers) {
  SimParams params;
  KafkaCluster cluster(1, 2, params);
  auto producer = cluster.MakeProducer(0);
  for (int i = 0; i < 4; ++i) {
    producer->Produce("t" + std::to_string(i), nullptr);
  }
  producer->Flush();
  cluster.RunFor(50 * kMs);
  RpcEndpoint raw(&cluster.network());
  Encoder e;
  e.PutU64(2);
  bool done = false;
  raw.Call(cluster.leader(0), kKafkaTruncate, e.Take(),
           [&](Status s, Decoder) {
             EXPECT_TRUE(s.ok());
             done = true;
           },
           kSec);
  RunUntilDone(cluster.loop(), done);
  EXPECT_EQ(cluster.broker(0, 0).log_end_offset(), 2u);
  EXPECT_EQ(cluster.broker(0, 1).log_end_offset(), 2u);
}

// Full Erwin-m-over-KafkaLite harness (the §6.8 bolt-on).
class ErwinOnKafka {
 public:
  explicit ErwinOnKafka(uint32_t partitions) : net_(&loop_, params_.net, 1) {
    for (uint32_t p = 0; p < partitions; ++p) {
      auto leader = std::make_unique<KafkaBroker>(&net_, params_, p, true);
      auto follower = std::make_unique<KafkaBroker>(&net_, params_, p, false);
      leader->SetFollowers({follower->node_id()});
      adapters_.push_back(
          std::make_unique<KafkaShardAdapter>(&net_, params_, p, leader->node_id()));
      adapter_ids_.push_back(adapters_.back()->node_id());
      brokers_.push_back(std::move(leader));
      brokers_.push_back(std::move(follower));
    }
    for (int i = 0; i < params_.seq.num_replicas; ++i) {
      seq_.push_back(std::make_unique<SequencingReplica>(&net_, params_, ErwinMode::kM, i));
      seq_ids_.push_back(seq_.back()->node_id());
    }
    for (auto& rep : seq_) {
      rep->Start(seq_ids_, adapter_ids_, adapter_ids_);
    }
    ClusterView view;
    view.seq_config = seq_ids_;
    for (NodeId a : adapter_ids_) {
      view.shards.push_back({a});
    }
    client_ = std::make_unique<ErwinMClient>(&net_, params_, view, 1);
  }

  EventLoop loop_;
  SimParams params_;
  Network net_;
  std::vector<std::unique_ptr<KafkaBroker>> brokers_;
  std::vector<std::unique_ptr<KafkaShardAdapter>> adapters_;
  std::vector<NodeId> adapter_ids_, seq_ids_;
  std::vector<std::unique_ptr<SequencingReplica>> seq_;
  std::unique_ptr<ErwinMClient> client_;
};

TEST(ErwinOnKafkaTest, AppendIsMicrosecondScaleDespiteKafkaBackend) {
  ErwinOnKafka h(2);
  bool done = false;
  const SimTime start = h.loop_.Now();
  SimTime end = 0;
  h.client_->log().Append("fast", [&](Status s) {
    ASSERT_TRUE(s.ok());
    end = h.loop_.Now();
    done = true;
  });
  RunUntilDone(h.loop_, done);
  EXPECT_LT(end - start, 100 * kUs);  // vs ms-scale standalone Kafka
}

TEST(ErwinOnKafkaTest, TotalOrderAcrossKafkaShards) {
  ErwinOnKafka h(3);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(AppendSyncly(h.loop_, *h.client_, "k" + std::to_string(i)));
  }
  h.loop_.RunUntil(h.loop_.Now() + 100 * kMs);  // background push into Kafka
  auto records = ReadSyncly(h.loop_, *h.client_, 0, 9, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 9u);
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ((*records)[i].pos, i);
    EXPECT_EQ((*records)[i].record.payload, "k" + std::to_string(i));
  }
  // Each Kafka partition physically holds its stripe.
  EXPECT_EQ(h.brokers_[0]->log_end_offset(), 3u);
}

TEST(ErwinOnKafkaTest, AdapterGatesReadsOnStableGp) {
  ErwinOnKafka h(1);
  ASSERT_TRUE(AppendSyncly(h.loop_, *h.client_, "gated"));
  // Immediately read: must take the slow path until ordering + stable-gp.
  bool done = false;
  h.client_->log().Read(0, 1, [&](Status s, std::vector<PositionedRecord> recs) {
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].record.payload, "gated");
    done = true;
  });
  RunUntilDone(h.loop_, done, 10 * kSec);
  ASSERT_TRUE(done);
  EXPECT_GE(h.adapters_[0]->slow_reads(), 1u);
}

// One Kafka-backed shard adapter driven over the wire. It holds the even positions of
// [0, 7); the odd ones belong to another shard. Stable-gp starts at 5.
struct AdapterRig {
  AdapterRig()
      : net(&loop, params.net, 1),
        leader(&net, params, 0, true),
        follower(&net, params, 0, false),
        adapter(&net, params, 0, leader.node_id()),
        probe(&net) {
    leader.SetFollowers({follower.node_id()});
    ShardAppendBatchReq window;
    window.view = 1;
    window.range_hi = 7;
    for (LogPos p : {0, 2, 4, 6}) {
      window.records.push_back(
          PositionedRecord{p, Record{RecordId{1, p + 1}, "k" + std::to_string(p), false}});
    }
    bool applied = false;
    probe.CallMsg(adapter.node_id(), kShardAppendBatch, window,
                  [&](Status s, Decoder) {
                    EXPECT_TRUE(s.ok()) << s.ToString();
                    applied = true;
                  },
                  kSec);
    RunUntilDone(loop, applied);
    EXPECT_TRUE(applied);
    SetStable(5, 7);
  }

  void SetStable(LogPos stable, LogPos durable) {
    probe.Notify(adapter.node_id(), kShardSetStableGp, StableGpMsg{1, stable, durable});
    loop.RunUntilIdle();
    EXPECT_EQ(adapter.stable_gp(), stable);
  }

  EventLoop loop;
  SimParams params;
  Network net;
  KafkaBroker leader;
  KafkaBroker follower;
  KafkaShardAdapter adapter;
  RpcEndpoint probe;
};

// The adapter's reads: every range is served from Kafka up to stable-gp. A multi-range
// read gives count 0 to a range starting at or above stable-gp and to a range starting
// at a position the adapter does not hold; a waiting read of an unknown stable position
// fails.
TEST(ErwinOnKafkaTest, AdapterReadsServeOnlyStableKnownRanges) {
  AdapterRig rig;
  RpcEndpoint& probe = rig.probe;
  KafkaShardAdapter& adapter = rig.adapter;
  EventLoop& loop = rig.loop;

  ShardReadReq req;
  req.ranges = {ReadRange{0, 4}, ReadRange{6, 1}, ReadRange{1, 1}, ReadRange{2, 1}};
  ShardReadResp resp;
  bool done = false;
  probe.CallMsg<ShardReadResp>(adapter.node_id(), kShardMultiRangeRead, req,
                               [&](Status s, ShardReadResp r) {
                                 EXPECT_TRUE(s.ok()) << s.ToString();
                                 resp = std::move(r);
                                 done = true;
                               },
                               kSec);
  RunUntilDone(loop, done);
  ASSERT_TRUE(done);
  EXPECT_EQ(resp.counts, (std::vector<uint32_t>{3, 0, 0, 1}));
  std::vector<LogPos> positions;
  for (const PositionedRecord& pr : resp.records) {
    EXPECT_EQ(pr.record.payload, "k" + std::to_string(pr.pos));
    positions.push_back(pr.pos);
  }
  EXPECT_EQ(positions, (std::vector<LogPos>{0, 2, 4, 2}));
  EXPECT_EQ(resp.stable_gp, 5u);
  EXPECT_EQ(resp.durable_tail, 7u);

  // A waiting read whose start is stable clips at stable-gp the same way.
  ShardReadResp single;
  done = false;
  probe.CallMsg<ShardReadResp>(adapter.node_id(), kShardRead,
                               ShardReadReq{{ReadRange{2, 4}}},
                               [&](Status s, ShardReadResp r) {
                                 EXPECT_TRUE(s.ok()) << s.ToString();
                                 single = std::move(r);
                                 done = true;
                               },
                               kSec);
  RunUntilDone(loop, done);
  EXPECT_EQ(single.counts, (std::vector<uint32_t>{2}));
  ASSERT_EQ(single.records.size(), 2u);
  EXPECT_EQ(single.records[0].pos, 2u);
  EXPECT_EQ(single.records[1].pos, 4u);

  Status unknown = Status::Ok();
  done = false;
  probe.CallMsg(adapter.node_id(), kShardRead, ShardReadReq{{ReadRange{1, 1}}},
                [&](Status s, Decoder) {
                  unknown = std::move(s);
                  done = true;
                },
                kSec);
  RunUntilDone(loop, done);
  EXPECT_EQ(unknown.code(), StatusCode::kInternal);
}

// A waiting read at or above stable-gp parks at the adapter and returns its records
// once stable-gp passes its start.
TEST(ErwinOnKafkaTest, AdapterParkedReadReturnsRecordsOnceStable) {
  AdapterRig rig;
  ShardReadResp resp;
  Status status = Status::Internal("pending");
  bool done = false;
  rig.probe.CallMsg<ShardReadResp>(rig.adapter.node_id(), kShardRead,
                                   ShardReadReq{{ReadRange{6, 1}}},
                                   [&](Status s, ShardReadResp r) {
                                     status = std::move(s);
                                     resp = std::move(r);
                                     done = true;
                                   },
                                   0);
  rig.loop.RunUntil(rig.loop.Now() + 10 * kMs);
  EXPECT_FALSE(done) << "a read above stable-gp was served";
  EXPECT_EQ(rig.adapter.slow_reads(), 1u);
  rig.SetStable(7, 7);
  RunUntilDone(rig.loop, done);
  ASSERT_TRUE(done);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(resp.records.size(), 1u);
  EXPECT_EQ(resp.records[0].pos, 6u);
  EXPECT_EQ(resp.records[0].record.payload, "k6");
  EXPECT_EQ(resp.stable_gp, 7u);
}

}  // namespace
}  // namespace lazylog
