// RPC layer tests: dispatch, async responders, timeouts, late responses, cancellation,
// notifications,
// the Gather fan-out helper, raw-frame validation, and the allocation cost of a warm
// round trip.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <tuple>

#include "src/lazylog/erwin_cluster.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "tests/test_util.h"

// Global operator new for this test binary: forwards to malloc and counts calls while
// g_count_news is set, so a test can measure the heap allocations of a code path.
namespace {
bool g_count_news = false;
size_t g_news = 0;

void* CountedNew(std::size_t n) {
  if (g_count_news) {
    ++g_news;
  }
  return std::malloc(n == 0 ? 1 : n);
}
void* CountedNewOrThrow(std::size_t n) {
  if (void* p = CountedNew(n)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedNewOrThrow(n); }
void* operator new[](std::size_t n) { return CountedNewOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedNew(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedNew(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

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

// Copies of a Responder share one token: a reply through one copy spends every copy.
// Dropping every copy unanswered leaves the caller to time out, and frees the token.
TEST_F(RpcTest, ResponderCopiesShareOneToken) {
  std::vector<Status> statuses;
  auto record = [&](Status s, Decoder) { statuses.push_back(std::move(s)); };
  client_.Call(server_.node_id(), kNever, "", record, 10 * kMs);
  client_.Call(server_.node_id(), kNever, "", record, 10 * kMs);
  loop_.RunUntil(1 * kMs);
  ASSERT_EQ(parked_.size(), 2u);

  Responder copy = parked_[0];
  EXPECT_TRUE(copy.valid());
  EXPECT_EQ(copy.caller(), client_.node_id());
  copy.Send(Status::Ok());
  EXPECT_FALSE(copy.valid());
  EXPECT_FALSE(parked_[0].valid()) << "a reply through one copy spends the others";
  EXPECT_EQ(parked_[0].caller(), client_.node_id());

  parked_.clear();  // the second call's only holder goes away unanswered
  loop_.RunUntilIdle();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(statuses[1].code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, SecondReplyFailsTheCheck) {
  client_.Call(server_.node_id(), kNever, "", [](Status, Decoder) {}, 10 * kMs);
  loop_.RunUntil(1 * kMs);
  ASSERT_EQ(parked_.size(), 1u);
  Responder copy = parked_[0];
  parked_[0].Send(Status::Ok());
  EXPECT_DEATH(copy.Send(Status::Ok()), "responding twice");
}

// A Responder that outlives its endpoint (parked in an event the loop destroys later)
// can still be dropped, and reports itself spent.
TEST(Rpc, ResponderOutlivesItsEndpoint) {
  EventLoop loop;
  Network net(&loop, NetworkParams{}, 1);
  RpcEndpoint client(&net);
  Responder kept;
  {
    RpcEndpoint server(&net);
    server.Register(kNever, [&kept](NodeId, Decoder, Responder r) { kept = r; });
    client.Call(server.node_id(), kNever, "", [](Status, Decoder) {}, 0);
    loop.RunUntilIdle();
    ASSERT_TRUE(kept.valid());
  }
  EXPECT_FALSE(kept.valid());
  kept = Responder();
}

// A notification is one frame (rpc id 0): nothing comes back for a handler's answer, a
// malformed body or an unknown method, where a call costs a request and a reply. A call
// to a reply-less handler goes unanswered and times out.
TEST(Rpc, NotifySendsOneFrameAndNoReply) {
  constexpr MethodId kUnknown = 99;
  EventLoop loop;
  Network net(&loop, NetworkParams{}, 1);
  RpcEndpoint server(&net);
  RpcEndpoint client(&net);
  std::vector<uint64_t> answered;
  std::vector<uint64_t> unanswered;
  server.Handle<uint64_t>(kEcho, [&](NodeId, uint64_t v, Responder r) {
    answered.push_back(v);
    r.Ok(v);
  });
  server.Handle<uint64_t>(kNever, [&](NodeId, uint64_t v) { unanswered.push_back(v); });
  auto frames = [&net, last = net.messages_sent()]() mutable {
    const uint64_t n = net.messages_sent() - last;
    last = net.messages_sent();
    return n;
  };

  uint64_t echoed = 0;
  client.CallMsg<uint64_t>(server.node_id(), kEcho, uint64_t{1},
                           [&](Status s, uint64_t v) {
                             EXPECT_TRUE(s.ok()) << s.ToString();
                             echoed = v;
                           },
                           kSec);
  loop.RunUntilIdle();
  EXPECT_EQ(echoed, 1u);
  EXPECT_EQ(frames(), 2u) << "a call is a request and a reply";

  client.Notify(server.node_id(), kEcho, uint64_t{2});
  loop.RunUntilIdle();
  EXPECT_EQ(answered, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(frames(), 1u) << "the handler's answer to a notification is dropped";

  client.Notify(server.node_id(), kNever, uint64_t{3});
  loop.RunUntilIdle();
  EXPECT_EQ(unanswered, (std::vector<uint64_t>{3}));
  EXPECT_EQ(frames(), 1u);

  client.Notify(server.node_id(), kEcho, NoBody{});  // a u64 needs eight bytes
  client.Notify(server.node_id(), kUnknown, uint64_t{4});
  loop.RunUntilIdle();
  EXPECT_EQ(answered.size(), 2u);
  EXPECT_EQ(frames(), 2u) << "no InvalidArgument and no \"no handler\" reply";

  Status status;
  client.CallMsg(server.node_id(), kNever, uint64_t{5},
                 [&](Status s, Decoder) { status = std::move(s); }, 10 * kMs);
  loop.RunUntilIdle();
  EXPECT_EQ(unanswered, (std::vector<uint64_t>{3, 5}));
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_EQ(frames(), 1u);
}

// Raw frames from a node with no RpcEndpoint, in the layout RpcEndpoint writes.
Buf RawRequest(uint32_t method, uint64_t rpc_id) {
  Encoder e;
  e.PutU8(1);
  e.PutU32(method);
  e.PutU64(rpc_id);
  e.PutBytes("", 0);
  return e.TakeBuf();
}
Buf RawResponse(uint64_t rpc_id, uint8_t code, const std::string& message) {
  Encoder e;
  e.PutU8(2);
  e.PutU64(rpc_id);
  e.PutU8(code);
  e.PutBytes(message);
  e.PutBytes("", 0);
  return e.TakeBuf();
}

// A request frame's method id is a u32 on the wire; one above 0xFFFF names no handler,
// rather than the handler of its low 16 bits (65736 = 0x100C8 would alias kSeqAppend).
TEST(Rpc, WideMethodIdNamesNoHandler) {
  EventLoop loop;
  Network net(&loop, NetworkParams{}, 1);
  RpcEndpoint server(&net);
  int reached = 0;
  server.Register(kSeqAppend, [&reached](NodeId, Decoder, Responder r) {
    ++reached;
    r.Send(Status::Ok());
  });
  std::vector<Buf> replies;
  const NodeId raw = net.AddNode([&replies](NetMessage&& m) { replies.push_back(m.payload); });
  net.Send(raw, server.node_id(), RawRequest(0x10000u | kSeqAppend, 7));
  net.Send(raw, server.node_id(), RawRequest(kSeqAppend, 8));
  loop.RunUntilIdle();
  EXPECT_EQ(reached, 1) << "only the 16-bit method id reaches the handler";
  ASSERT_EQ(replies.size(), 2u);
  std::map<uint64_t, std::pair<uint8_t, std::string>> by_id;
  for (const Buf& reply : replies) {
    Decoder d(reply);
    uint8_t kind = 0;
    uint64_t rpc_id = 0;
    uint8_t code = 0;
    std::string message;
    ASSERT_TRUE(d.GetU8(&kind) && d.GetU64(&rpc_id) && d.GetU8(&code) && d.GetBytes(&message));
    EXPECT_EQ(kind, 2);
    by_id[rpc_id] = {code, message};
  }
  ASSERT_EQ(by_id.count(7), 1u);
  EXPECT_EQ(by_id[7].first, static_cast<uint8_t>(StatusCode::kUnavailable));
  EXPECT_EQ(by_id[7].second, "no handler for method");
  EXPECT_EQ(by_id[8].first, static_cast<uint8_t>(StatusCode::kOk));
}

// A reply whose status byte names no StatusCode is malformed: the callback gets
// Internal("malformed reply"), not an out-of-range code.
TEST(Rpc, UnknownStatusByteArrivesAsMalformedReply) {
  EventLoop loop;
  Network net(&loop, NetworkParams{}, 1);
  RpcEndpoint client(&net);
  NodeId raw = kInvalidNode;
  const uint8_t last = static_cast<uint8_t>(kLastStatusCode);
  const std::vector<uint8_t> codes = {0xEE, static_cast<uint8_t>(last + 1), last};
  size_t next = 0;
  raw = net.AddNode([&](NetMessage&& m) {
    Decoder d(m.payload);
    uint8_t kind = 0;
    uint32_t method = 0;
    uint64_t rpc_id = 0;
    ASSERT_TRUE(d.GetU8(&kind) && d.GetU32(&method) && d.GetU64(&rpc_id));
    net.Send(raw, m.from, RawResponse(rpc_id, codes[next++], "x"));
  });
  std::vector<Status> got;
  for (size_t i = 0; i < codes.size(); ++i) {
    client.Call(raw, kEcho, Buf(), [&got](Status s, Decoder) { got.push_back(std::move(s)); },
                kSec);
    loop.RunUntilIdle();
  }
  ASSERT_EQ(got.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(got[i].code(), StatusCode::kInternal) << i;
    EXPECT_EQ(got[i].message(), "malformed reply") << i;
  }
  EXPECT_EQ(got[2].code(), kLastStatusCode);
  EXPECT_EQ(got[2].message(), "x");
}

// A warm round trip allocates its two frames and nothing else: the request and reply
// frames are one backing each, the 48-byte reply callback is stored inline, and the
// pending-call table, reply tokens and event slab are reused.
TEST(Rpc, WarmRoundTripAllocatesOnlyFrames) {
  EventLoop loop;
  Network net(&loop, NetworkParams{}, 1);
  RpcEndpoint server(&net);
  RpcEndpoint client(&net);
  server.Handle<NoBody>(kEcho, [](NodeId, NoBody, Responder r) { r.Ok(NoBody{}); });
  uint64_t replies = 0;
  auto trip = [&] {
    const std::array<uint64_t, 5> pad = {1, 2, 3, 4, 5};
    auto cb = [&replies, pad](Status s, NoBody) {
      if (s.ok() && pad[4] == 5) {
        ++replies;
      }
    };
    static_assert(sizeof(cb) == 48);
    client.CallMsg<NoBody>(server.node_id(), kEcho, NoBody{}, std::move(cb), kSec);
    loop.RunUntilIdle();
  };
  for (int i = 0; i < 100; ++i) {
    trip();
  }
  constexpr int kTrips = 1000;
  g_news = 0;
  g_count_news = true;
  for (int i = 0; i < kTrips; ++i) {
    trip();
  }
  g_count_news = false;
  EXPECT_EQ(replies, 100u + kTrips);
  EXPECT_LE(g_news, 2u * kTrips) << static_cast<double>(g_news) / kTrips
                                 << " allocations per round trip";
}

// Every method id in rpc_methods.h.
constexpr MethodId kAllMethods[] = {
    kZkCreateSession, kZkHeartbeat, kZkCreate, kZkSetData, kZkGetData, kZkWatch,
    kZkWatchFire, kZkDelete, kZkList,
    kSeqAppend, kSeqAppendMeta, kSeqGc, kSeqSeal, kSeqFetchLog, kSeqStartView,
    kSeqCheckTail, kSeqGetConfig, kSeqTrim, kSeqUpdateShards, kSeqShardFailover,
    kSeqUpdateLogs,
    kShardAppendBatch, kShardReplicate, kShardRead, kShardSetStableGp, kShardPutData,
    kShardOrderMeta, kShardPosMap, kShardTrim, kShardReplicateMeta,
    kShardReplicateNoOp, kShardFetchRecord, kShardFetchState, kShardSeal, kShardCopyState,
    kShardIndexDelta, kShardPromoSeal, kShardPromote,
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
