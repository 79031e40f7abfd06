// RPC layer tests: dispatch, async responders, timeouts, late responses, cancellation,
// and the Gather fan-out helper.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/lazylog/erwin_cluster.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

constexpr MethodId kEcho = 1;
constexpr MethodId kNever = 2;
constexpr MethodId kDeferred = 3;

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : net_(&loop_, NetworkParams{}, 1), server_(&net_), client_(&net_) {
    server_.Register(kEcho, [](NodeId, Decoder d, Responder r) {
      std::string s;
      d.GetBytes(&s);
      Encoder e;
      e.PutBytes(s);
      r.Ok(e);
    });
    server_.Register(kNever, [this](NodeId, Decoder, Responder r) {
      parked_.push_back(std::move(r));  // never answered (until test flushes)
    });
    server_.Register(kDeferred, [this](NodeId, Decoder, Responder r) {
      loop_.Schedule(5 * kMs, [r]() mutable { r.Send(Status::Ok(), "late"); });
    });
  }

  EventLoop loop_;
  Network net_;
  RpcEndpoint server_;
  RpcEndpoint client_;
  std::vector<Responder> parked_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  Encoder e;
  e.PutBytes("ping");
  Status status = Status::Internal("unset");
  std::string reply;
  client_.Call(server_.node_id(), kEcho, e.Take(),
               [&](Status s, Decoder d) {
                 status = std::move(s);
                 d.GetBytes(&reply);
               },
               kSec);
  loop_.RunUntilIdle();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(reply, "ping");
}

TEST_F(RpcTest, UnknownMethodReturnsError) {
  Status status;
  client_.Call(server_.node_id(), 999, "", [&](Status s, Decoder) { status = s; },
               kSec);
  loop_.RunUntilIdle();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(RpcTest, TimeoutFiresWhenServerSilent) {
  Status status;
  client_.Call(server_.node_id(), kNever, "", [&](Status s, Decoder) { status = s; },
               10 * kMs);
  loop_.RunUntilIdle();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, LateResponseAfterTimeoutIsDropped) {
  int calls = 0;
  client_.Call(server_.node_id(), kNever, "",
               [&](Status, Decoder) { calls++; }, 10 * kMs);
  loop_.RunUntil(20 * kMs);
  EXPECT_EQ(calls, 1);
  // Server finally responds; the client must not invoke the callback again.
  for (auto& r : parked_) {
    r.Send(Status::Ok());
  }
  parked_.clear();
  loop_.RunUntilIdle();
  EXPECT_EQ(calls, 1);
}

TEST_F(RpcTest, DeferredResponderWorks) {
  Status status = Status::Internal("unset");
  std::string body_out;
  client_.Call(server_.node_id(), kDeferred, "",
               [&](Status s, Decoder d) {
                 status = std::move(s);
                 body_out = d.RemainingString();
               },
               kSec);
  loop_.RunUntilIdle();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(body_out, "late");
}

TEST_F(RpcTest, ErrorStatusPropagates) {
  server_.Register(kEcho, [](NodeId, Decoder, Responder r) {
    r.Send(Status::Sealed("try later"));
  });
  Status status;
  client_.Call(server_.node_id(), kEcho, "", [&](Status s, Decoder) { status = s; },
               kSec);
  loop_.RunUntilIdle();
  EXPECT_EQ(status.code(), StatusCode::kSealed);
  EXPECT_EQ(status.message(), "try later");
}

TEST_F(RpcTest, CancelAllFailsOutstanding) {
  Status status;
  client_.Call(server_.node_id(), kNever, "", [&](Status s, Decoder) { status = s; },
               0);
  client_.CancelAll();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(RpcTest, CallToCrashedServerTimesOut) {
  net_.Crash(server_.node_id());
  Status status;
  client_.Call(server_.node_id(), kEcho, "", [&](Status s, Decoder) { status = s; },
               5 * kMs);
  loop_.RunUntilIdle();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, ManyConcurrentCallsMatchResponses) {
  int ok = 0;
  for (int i = 0; i < 100; ++i) {
    Encoder e;
    e.PutBytes("m" + std::to_string(i));
    const std::string want = "m" + std::to_string(i);
    client_.Call(server_.node_id(), kEcho, e.Take(),
                 [&ok, want](Status s, Decoder d) {
                   std::string got;
                   d.GetBytes(&got);
                   if (s.ok() && got == want) {
                     ok++;
                   }
                 },
                 kSec);
  }
  loop_.RunUntilIdle();
  EXPECT_EQ(ok, 100);
}

TEST(Gather, CompletesOnceAllSlotsDone) {
  bool done = false;
  std::vector<Status> result;
  auto gather = Gather::Create(3, [&](const std::vector<Status>& ss) {
    done = true;
    result = ss;
  });
  auto s0 = gather->Slot(0);
  auto s1 = gather->Slot(1);
  auto s2 = gather->Slot(2);
  s1(Status::Ok(), Decoder());
  EXPECT_FALSE(done);
  s0(Status::Timeout(), Decoder());
  EXPECT_FALSE(done);
  s2(Status::Ok(), Decoder());
  ASSERT_TRUE(done);
  EXPECT_TRUE(result[0].code() == StatusCode::kTimeout);
  EXPECT_TRUE(result[1].ok());
  EXPECT_TRUE(result[2].ok());
}

TEST(Gather, SurvivesCallerRelease) {
  bool done = false;
  RpcEndpoint::ResponseCallback cb;
  {
    auto gather = Gather::Create(1, [&](const std::vector<Status>&) { done = true; });
    cb = gather->Slot(0);
  }  // gather's shared_ptr released; the slot keeps it alive
  cb(Status::Ok(), Decoder());
  EXPECT_TRUE(done);
}

// Every method id in rpc_methods.h.
constexpr MethodId kAllMethods[] = {
    kZkCreateSession, kZkHeartbeat, kZkCreate, kZkSetData, kZkGetData, kZkWatch,
    kZkWatchFire, kZkDelete, kZkList,
    kSeqAppend, kSeqAppendMeta, kSeqGc, kSeqSeal, kSeqFetchLog, kSeqStartView,
    kSeqCheckTail, kSeqGetConfig, kSeqTrim, kSeqUpdateShards, kSeqShardFailover,
    kSeqUpdateLogs,
    kShardAppendBatch, kShardReplicate, kShardRead, kShardSetStableGp, kShardPutData,
    kShardOrderMeta, kShardPosMap, kShardTrim, kShardOverwriteTail, kShardReplicateMeta,
    kShardReplicateNoOp, kShardFetchRecord, kShardFetchState, kShardSeal, kShardCopyState,
    kShardIndexDelta, kShardMultiRead, kShardPromoSeal, kShardPromote, kShardBackfill,
    kShardMultiRangeRead,
    kIndexReadNext,
    kCorfuNextPos, kCorfuWrite, kCorfuRead, kCorfuTail,
    kScalogAppend, kScalogReplicate, kScalogReportCut, kScalogCommitCut, kScalogRead,
    kScalogLocate, kScalogTail, kPaxosPrepare, kPaxosAccept, kPaxosLearn,
    kKafkaProduce, kKafkaReplicate, kKafkaFetch, kKafkaTruncate, kKafkaMeta,
    kKvPut, kKvGet, kTxnExecute, kStreamEmit,
};

// Sends an empty body and a one-byte 0xFF body to every method on every server node of
// a full cluster (controller, ZK and an index node included). No handler may accept
// either, except the methods whose request is legitimately empty; a silent drop (the
// call times out) is not an accept. The cluster must keep working afterwards.
void SweepMalformedBodies(ErwinMode mode) {
  ErwinClusterOptions opt;
  opt.mode = mode;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "before"));

  std::vector<NodeId> servers = {cluster.zookeeper()->node_id(),
                                 cluster.controller()->node_id()};
  for (uint32_t i = 0; i < cluster.num_seq_replicas(); ++i) {
    servers.push_back(cluster.seq_replica(i).node_id());
  }
  for (uint32_t s = 0; s < cluster.num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster.shard_size(s); ++r) {
      servers.push_back(cluster.shard(s, r).node_id());
    }
  }
  for (uint32_t i = 0; i < cluster.num_index_nodes(); ++i) {
    servers.push_back(cluster.index_node(i).node_id());
  }

  // Requests that are legitimately empty: a config probe, a session open and a state
  // pull ignore the body, and an empty check-tail body names the default log.
  const std::set<std::tuple<MethodId, bool>> may_accept = {
      {kSeqGetConfig, true},    {kSeqGetConfig, false},    {kZkCreateSession, true},
      {kZkCreateSession, false}, {kShardFetchState, true}, {kShardFetchState, false},
      {kSeqCheckTail, true}};

  RpcEndpoint probe(&cluster.network());
  size_t replies = 0;
  size_t calls = 0;
  for (NodeId node : servers) {
    for (MethodId m : kAllMethods) {
      for (bool empty : {true, false}) {
        ++calls;
        probe.Call(node, m, empty ? Buf() : Buf(std::string(1, '\xff')),
                   [&, node, m, empty](Status s, Decoder) {
                     ++replies;
                     if (may_accept.count({m, empty}) == 0) {
                       EXPECT_FALSE(s.ok()) << "node " << node << " method " << m
                                            << (empty ? " empty body" : " 0xFF body");
                     }
                   },
                   50 * kMs);
      }
    }
  }
  cluster.RunFor(100 * kMs);
  EXPECT_EQ(replies, calls);

  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "after"));
  cluster.RunFor(20 * kMs);
  auto records = ReadSyncly(cluster.loop(), *client, 0, 2);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].record.payload, "before");
  EXPECT_EQ((*records)[1].record.payload, "after");
}

TEST(Rpc, MalformedBodiesRejectedOnEveryMethod) {
  SweepMalformedBodies(ErwinMode::kM);
  SweepMalformedBodies(ErwinMode::kSt);
}

}  // namespace
}  // namespace lazylog
