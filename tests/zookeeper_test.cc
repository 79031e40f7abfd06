// ZooKeeperLite tests: sessions, heartbeats, ephemeral expiry, watches, versioned
// writes, list, delete.
#include <gtest/gtest.h>

#include "src/control/zookeeper.h"

namespace lazylog {
namespace {

class ZkTest : public ::testing::Test {
 protected:
  ZkTest() : net_(&loop_, NetworkParams{}, 1), zk_(&net_, params_), client_ep_(&net_),
             client_(&client_ep_, zk_.node_id()) {}

  EventLoop loop_;
  Network net_;
  ControlParams params_;
  ZooKeeperLite zk_;
  RpcEndpoint client_ep_;
  ZkClient client_;
};

TEST_F(ZkTest, CreateAndGet) {
  Status create_status;
  client_.Create("/a/b", "hello", 0, [&](Status s) { create_status = s; });
  loop_.RunUntil(loop_.Now() + 100 * kMs);
  EXPECT_TRUE(create_status.ok());
  Status get_status;
  std::string data;
  uint64_t version = 99;
  client_.GetData("/a/b", [&](Status s, std::string d, uint64_t v) {
    get_status = s;
    data = std::move(d);
    version = v;
  });
  loop_.RunUntil(loop_.Now() + 100 * kMs);
  EXPECT_TRUE(get_status.ok());
  EXPECT_EQ(data, "hello");
  EXPECT_EQ(version, 0u);
}

TEST_F(ZkTest, DuplicateCreateRejected) {
  client_.Create("/dup", "1", 0, nullptr);
  loop_.RunUntil(loop_.Now() + 100 * kMs);  // first create committed
  Status second;
  client_.Create("/dup", "2", 0, [&](Status s) { second = s; });
  loop_.RunUntil(loop_.Now() + 100 * kMs);
  EXPECT_EQ(second.code(), StatusCode::kDuplicate);
  EXPECT_EQ(zk_.DataOf("/dup"), "1");
}

TEST_F(ZkTest, VersionedSetData) {
  client_.Create("/v", "a", 0, nullptr);
  loop_.RunUntil(loop_.Now() + 50 * kMs);
  Status ok_status, stale_status;
  client_.SetData("/v", "b", 0, [&](Status s) { ok_status = s; });
  loop_.RunUntil(loop_.Now() + 50 * kMs);
  client_.SetData("/v", "c", 0, [&](Status s) { stale_status = s; });  // stale version
  loop_.RunUntil(loop_.Now() + 50 * kMs);
  EXPECT_TRUE(ok_status.ok());
  EXPECT_EQ(stale_status.code(), StatusCode::kRejected);
  EXPECT_EQ(zk_.DataOf("/v"), "b");
}

TEST_F(ZkTest, UnconditionalSetUpserts) {
  Status s1;
  client_.SetData("/new", "x", UINT64_MAX, [&](Status s) { s1 = s; });
  loop_.RunUntil(loop_.Now() + 50 * kMs);
  EXPECT_TRUE(s1.ok());
  EXPECT_EQ(zk_.DataOf("/new"), "x");
}

TEST_F(ZkTest, DeleteRemoves) {
  client_.Create("/gone", "x", 0, nullptr);
  loop_.RunUntil(loop_.Now() + 50 * kMs);
  Status del;
  client_.Delete("/gone", [&](Status s) { del = s; });
  loop_.RunUntil(loop_.Now() + 50 * kMs);
  EXPECT_TRUE(del.ok());
  EXPECT_FALSE(zk_.Exists("/gone"));
}

TEST_F(ZkTest, ListReturnsPrefixMatches) {
  client_.Create("/seq/replicas/0", "", 0, nullptr);
  client_.Create("/seq/replicas/1", "", 0, nullptr);
  client_.Create("/seq/config", "", 0, nullptr);
  loop_.RunUntil(loop_.Now() + 100 * kMs);
  std::vector<std::string> paths;
  client_.List("/seq/replicas/", [&](Status, std::vector<std::string> p) { paths = p; });
  loop_.RunUntil(loop_.Now() + 50 * kMs);
  EXPECT_EQ(paths.size(), 2u);
}

TEST_F(ZkTest, WatchFiresOnCreateAndDelete) {
  std::vector<std::pair<std::string, ZkEvent>> events;
  client_.Watch("/w/", [&](const std::string& path, ZkEvent e) { events.push_back({path, e}); });
  loop_.RunUntil(loop_.Now() + 10 * kMs);
  client_.Create("/w/x", "", 0, nullptr);
  loop_.RunUntil(loop_.Now() + 50 * kMs);
  client_.Delete("/w/x", nullptr);
  loop_.RunUntil(loop_.Now() + 50 * kMs);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].second, ZkEvent::kCreated);
  EXPECT_EQ(events[1].second, ZkEvent::kDeleted);
  EXPECT_EQ(events[0].first, "/w/x");
}

TEST_F(ZkTest, SessionKeepsEphemeralAliveWhileHeartbeating) {
  RpcEndpoint owner(&net_);
  ZkSession session(&owner, zk_.node_id(), params_);
  bool ready = false;
  session.Start("/seq/replicas/7", [&]() { ready = true; });
  loop_.RunUntil(loop_.Now() + 100 * kMs);
  EXPECT_TRUE(ready);
  EXPECT_TRUE(session.connected());
  EXPECT_TRUE(zk_.Exists("/seq/replicas/7"));
  // Stays alive well past the session timeout because heartbeats flow.
  loop_.RunUntil(loop_.Now() + 5 * params_.session_timeout_ns);
  EXPECT_TRUE(zk_.Exists("/seq/replicas/7"));
}

TEST_F(ZkTest, SessionExpiryDeletesEphemeralAndFiresWatch) {
  std::vector<std::string> deleted;
  client_.Watch("/seq/replicas/", [&](const std::string& path, ZkEvent e) {
    if (e == ZkEvent::kDeleted) {
      deleted.push_back(path);
    }
  });
  RpcEndpoint owner(&net_);
  ZkSession session(&owner, zk_.node_id(), params_);
  session.Start("/seq/replicas/9");
  loop_.RunUntil(loop_.Now() + 100 * kMs);
  ASSERT_TRUE(zk_.Exists("/seq/replicas/9"));
  // Crash the owner: heartbeats stop reaching ZK; the session expires.
  net_.Crash(owner.node_id());
  loop_.RunUntil(loop_.Now() + 3 * params_.session_timeout_ns);
  EXPECT_FALSE(zk_.Exists("/seq/replicas/9"));
  ASSERT_EQ(deleted.size(), 1u);
  EXPECT_EQ(deleted[0], "/seq/replicas/9");
}

TEST_F(ZkTest, WriteLatencyIsCharged) {
  const SimTime start = loop_.Now();
  SimTime done_at = 0;
  client_.Create("/slow", "x", 0, [&](Status) { done_at = loop_.Now(); });
  loop_.RunUntil(loop_.Now() + 100 * kMs);
  EXPECT_GE(done_at - start, params_.zk_write_latency_ns);
}

// A fake ZK endpoint answers OK with truncated bodies: the client must surface the
// malformed reply as an error instead of handing the caller empty data, version 0 or a
// partial list.
TEST(ZkClientReplies, TruncatedRepliesAreErrors) {
  EventLoop loop;
  Network net(&loop, NetworkParams{}, 1);
  RpcEndpoint fake_zk(&net);
  RpcEndpoint client_ep(&net);
  fake_zk.Register(kZkGetData, [](NodeId, Decoder, Responder r) {
    Encoder e;
    e.PutBytes("config");  // the u64 version is missing
    r.Ok(e);
  });
  fake_zk.Register(kZkList, [](NodeId, Decoder, Responder r) {
    Encoder e;
    e.PutU32(3);  // claims three paths, carries one
    e.PutBytes("/a");
    r.Ok(e);
  });
  ZkClient client(&client_ep, fake_zk.node_id());

  bool got_data = false;
  Status data_status;
  client.GetData("/cfg", [&](Status s, std::string, uint64_t) {
    data_status = std::move(s);
    got_data = true;
  });
  bool got_list = false;
  Status list_status;
  client.List("/", [&](Status s, std::vector<std::string>) {
    list_status = std::move(s);
    got_list = true;
  });
  loop.RunUntil(loop.Now() + 10 * kMs);
  ASSERT_TRUE(got_data);
  ASSERT_TRUE(got_list);
  EXPECT_FALSE(data_status.ok());
  EXPECT_FALSE(list_status.ok());
}

// A watcher answers a notification it cannot decode with an error, not OK.
TEST(ZkClientReplies, MalformedWatchFireIsRejected) {
  EventLoop loop;
  Network net(&loop, NetworkParams{}, 1);
  ControlParams params;
  ZooKeeperLite zk(&net, params);
  RpcEndpoint watcher_ep(&net);
  RpcEndpoint sender(&net);
  ZkClient client(&watcher_ep, zk.node_id());
  int fired = 0;
  client.Watch("/w/", [&](const std::string&, ZkEvent) { ++fired; });

  Encoder e;
  e.PutBytes("/w/x");  // the event byte is missing
  Status status;
  sender.Call(watcher_ep.node_id(), kZkWatchFire, e.Take(),
              [&](Status s, Decoder) { status = std::move(s); }, kSec);
  loop.RunUntil(loop.Now() + 10 * kMs);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace lazylog
