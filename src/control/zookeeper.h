// ZooKeeperLite: the coordination service Erwin's control plane uses for failure
// detection and view persistence (the paper runs a ZooKeeper instance + stateless
// controller, §4.5). Provides sessions with heartbeat-based expiry, ephemeral and
// persistent znodes with versions, prefix watches, and ZooKeeper-like operation
// latencies (quorum-write cost on mutations) so Fig 17's reconfiguration breakdown
// keeps its paper shape.
#ifndef SRC_CONTROL_ZOOKEEPER_H_
#define SRC_CONTROL_ZOOKEEPER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/params.h"
#include "src/common/status.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/sim/resources.h"

namespace lazylog {

// ZooKeeper timings, calibrated to the paper's reconfiguration breakdown (§6.10,
// Fig 17b): most of the ~15 ms outage is failure detection (about the session
// timeout) and persisting the new view (one quorum write to the ZK ensemble).
constexpr uint64_t kZkSessionHeartbeatNs = 2 * kMs;
constexpr uint64_t kZkSessionTimeoutNs = 8 * kMs;   // detection cost ~ timeout
constexpr uint64_t kZkWriteLatencyNs = 3 * kMs;     // quorum write to the ensemble
constexpr uint64_t kZkReadLatencyNs = 300 * kUs;

// Watch event types delivered to watchers.
enum class ZkEvent : uint8_t { kCreated = 0, kDeleted = 1, kDataChanged = 2 };

// Bodies of the ZK protocol. A path-only request (getData, delete, list, watch) is a
// bare string, a heartbeat the bare session id, and the list reply a vector of paths.
// create / setData.
struct ZkPathData {
  std::string path;
  std::string data;
  uint64_t arg = 0;  // ephemeral session / expected version
  template <class Ar> void Wire(Ar& ar) { ar(path, data, arg); }
};
// getData reply.
struct ZkDataResp {
  std::string data;
  uint64_t version = 0;
  template <class Ar> void Wire(Ar& ar) { ar(data, version); }
};
// Server -> watcher notification; `event` is a ZkEvent.
struct ZkWatchEvent {
  std::string path;
  uint8_t event = 0;
  template <class Ar> void Wire(Ar& ar) { ar(path, event); }
};

// The ZooKeeperLite server. One sim node; internally charges quorum-commit latency per
// mutation, standing in for a 3-node ZK ensemble.
class ZooKeeperLite {
 public:
  explicit ZooKeeperLite(Network* net);

  NodeId node_id() const { return endpoint_.node_id(); }

  // Test/introspection helpers (bypass the wire; no latency charged).
  bool Exists(const std::string& path) const { return znodes_.count(path) > 0; }
  std::string DataOf(const std::string& path) const;

 private:
  struct Znode {
    std::string data;
    uint64_t version = 0;
    uint64_t ephemeral_session = 0;  // 0 == persistent
  };
  struct Session {
    uint64_t id = 0;
    NodeId owner = kInvalidNode;
    SimTime last_heartbeat = 0;
  };
  struct Watch {
    NodeId watcher = kInvalidNode;
    std::string prefix;
  };

  void HandleCreateSession(NodeId caller, NoBody, Responder r);
  void HandleHeartbeat(uint64_t session_id);  // notification; unanswered
  void HandleCreate(ZkPathData req, Responder r);
  void HandleSetData(ZkPathData req, Responder r);
  void HandleGetData(std::string path, Responder r);
  void HandleDelete(std::string path, Responder r);
  void HandleList(std::string prefix, Responder r);
  void HandleWatch(NodeId caller, std::string prefix);  // notification; unanswered

  void CheckSessions();
  void ExpireSession(uint64_t session_id);
  void FireWatches(const std::string& path, ZkEvent event);

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  std::map<std::string, Znode> znodes_;  // ordered for prefix listing
  std::unordered_map<uint64_t, Session> sessions_;
  std::vector<Watch> watches_;
  uint64_t next_session_id_ = 1;
};

// Client-side session: creates a ZK session, maintains heartbeats, and (optionally)
// registers an ephemeral znode that disappears when this node dies. Sequencing replicas
// hold one of these; the controller detects their failure via the ephemeral's deletion.
class ZkSession {
 public:
  // `endpoint` is the owning server's endpoint; heartbeats ride its (simulated) NIC, so
  // a crashed owner stops heartbeating with no extra wiring.
  ZkSession(RpcEndpoint* endpoint, NodeId zk_node) : endpoint_(endpoint), zk_node_(zk_node) {}

  // Establishes the session and creates `ephemeral_path` (empty = no ephemeral) once
  // connected. `on_ready` fires after the ephemeral exists.
  void Start(const std::string& ephemeral_path, std::function<void()> on_ready = nullptr);
  // Stops heartbeating (clean shutdown; the session will expire server-side).
  void Stop();

  bool connected() const { return session_id_ != 0; }
  uint64_t session_id() const { return session_id_; }

 private:
  void HeartbeatLoop();

  RpcEndpoint* endpoint_;
  NodeId zk_node_;
  uint64_t session_id_ = 0;
  bool stopped_ = false;
  EventHandle heartbeat_event_;
};

// Thin client wrappers for one-shot ZK operations from any endpoint.
class ZkClient {
 public:
  ZkClient(RpcEndpoint* endpoint, NodeId zk_node) : endpoint_(endpoint), zk_node_(zk_node) {}

  using DataCallback = std::function<void(Status, std::string data, uint64_t version)>;
  using DoneCallback = std::function<void(Status)>;
  using ListCallback = std::function<void(Status, std::vector<std::string>)>;
  // Watch callback: path + event.
  using WatchCallback = std::function<void(const std::string& path, ZkEvent event)>;

  // All operations take an optional `timeout_ns`; 0 means wait forever (the callback may
  // then never fire if ZK is unreachable). Callers that must make progress under
  // partitions — the controller's view write, client config refresh — pass a bound and
  // retry on DEADLINE_EXCEEDED.
  void Create(const std::string& path, const std::string& data, uint64_t ephemeral_session,
              DoneCallback cb, uint64_t timeout_ns = 0);
  // expected_version UINT64_MAX means unconditional.
  void SetData(const std::string& path, const std::string& data, uint64_t expected_version,
               DoneCallback cb, uint64_t timeout_ns = 0);
  void GetData(const std::string& path, DataCallback cb, uint64_t timeout_ns = 0);
  void Delete(const std::string& path, DoneCallback cb, uint64_t timeout_ns = 0);
  void List(const std::string& prefix, ListCallback cb, uint64_t timeout_ns = 0);
  // Registers a prefix watch; notifications arrive on `endpoint_` for as long as it lives.
  void Watch(const std::string& prefix, WatchCallback cb);

 private:
  RpcEndpoint* endpoint_;
  NodeId zk_node_;
  WatchCallback watch_cb_;
};

}  // namespace lazylog

#endif  // SRC_CONTROL_ZOOKEEPER_H_
